// Package nodet implements the imvet analyzer that forbids nondeterminism
// sources inside imdist's deterministic packages.
//
// The determinism contract (docs/ARCHITECTURE.md) promises byte-identical
// sketches and answers given (graph, model, seed) — across worker counts,
// batch schedules, kernels and stores. That only holds if the
// deterministic core never consults ambient state: wall clocks, process
// environment, globally-seeded generators, or Go's randomized map iteration
// order. The compiler cannot check any of this; nodet does.
package nodet

import (
	"go/ast"
	"go/types"
	"strings"

	"imdist/internal/analysis"
	"imdist/internal/analysis/dataflow"
)

// deterministicPackages lists the import paths bound by the determinism
// contract. A package outside this list can opt in with a
// //imvet:deterministic comment directive in any of its files.
var deterministicPackages = []string{
	"imdist/internal/core",
	"imdist/internal/rng",
	"imdist/internal/diffusion",
	"imdist/internal/estimator",
	"imdist/internal/greedy",
	"imdist/internal/sketchio",
}

// forbiddenImports are packages whose mere presence in a deterministic
// package means randomness or ambient state is being drawn outside the
// rng.Splitter discipline.
var forbiddenImports = map[string]string{
	"math/rand":    "globally-seeded randomness",
	"math/rand/v2": "globally-seeded randomness",
	"crypto/rand":  "nondeterministic randomness",
}

// forbiddenCalls are package-level functions that read ambient state.
var forbiddenCalls = map[string][]string{
	"time": {"Now", "Since", "Until"},
	"os":   {"Getenv", "LookupEnv", "Environ"},
}

// Analyzer is the nodet pass.
var Analyzer = &analysis.Analyzer{
	Name: "nodet",
	Doc: "forbid nondeterminism sources (time.Now, math/rand, os.Getenv, map-iteration " +
		"accumulation) in the deterministic packages; //imvet:deterministic opts a package in, " +
		"//imvet:allow nodet exempts a vetted line",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !deterministic(pass) {
		return nil
	}
	for _, f := range pass.SourceFiles() {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if why, ok := forbiddenImports[path]; ok {
				pass.Reportf(imp.Pos(), "import of %s (%s) in deterministic package %s; use imdist/internal/rng streams", path, why, pass.Pkg.Path())
			}
		}
	}
	dataflow.PackageInfo(pass).Inspect(func(_ *dataflow.Func, n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, n)
		case *ast.RangeStmt:
			checkMapRange(pass, n)
		}
		return true
	})
	return nil
}

// deterministic reports whether the package under analysis is bound by the
// determinism contract, by import path or by explicit directive.
func deterministic(pass *analysis.Pass) bool {
	path := pass.Pkg.Path()
	for _, p := range deterministicPackages {
		if path == p {
			return true
		}
	}
	return pass.HasPackageDirective("deterministic")
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	for _, name := range forbiddenCalls[fn.Pkg().Path()] {
		if fn.Name() == name && fn.Type().(*types.Signature).Recv() == nil {
			pass.Reportf(call.Pos(), "call to %s.%s in deterministic package %s reads ambient state; results must depend only on (graph, model, seed)", fn.Pkg().Path(), name, pass.Pkg.Path())
		}
	}
}

// checkMapRange flags `for ... := range m` over a map when the loop body
// appends to a slice declared outside the loop: the append order then
// inherits Go's randomized map iteration order, which is exactly how a
// "deterministic" result silently becomes schedule-dependent. Iterating a
// sorted key slice (or sorting afterwards, with an //imvet:allow nodet
// justification) keeps the contract.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	t := pass.TypesInfo.Types[rng.X].Type
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
			return true
		}
		call, ok := asg.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return true
		}
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
			return true
		}
		dst, ok := ast.Unparen(asg.Lhs[0]).(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[dst]
		if obj == nil || (rng.Pos() <= obj.Pos() && obj.Pos() <= rng.End()) {
			return true
		}
		pass.Reportf(asg.Pos(), "append to %s inside range over map: iteration order is randomized, so the accumulated slice is nondeterministic; iterate sorted keys instead", dst.Name)
		return true
	})
}
