// Package analysis is imdist's project-specific static-analysis framework:
// a deliberately small, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis surface that the imvet analyzer suite is
// written against.
//
// The repo's correctness story rests on application-level contracts the Go
// compiler cannot see — byte-identical answers across worker counts, kernels,
// batch schedules and stores, and strict resource hygiene on the
// sketch/checkpoint/spill files. The analyzers in the subpackages (nodet,
// rngstream, lostclose, lockscope) verify those contracts at vet time; this
// package gives them the Analyzer/Pass/Diagnostic vocabulary, the
// //imvet:allow suppression directive, and a `go list -export`-driven package
// loader used by the standalone driver and the analysistest harness. The
// `go vet -vettool` integration lives in unitchecker.go.
//
// The framework is stdlib-only on purpose: the module has no third-party
// dependencies, and the analyzers need nothing beyond go/ast and go/types.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one named invariant check. Unlike
// golang.org/x/tools/go/analysis there is no Requires/Facts machinery: every
// imvet analyzer is a self-contained single-package pass, which is exactly
// what lets the unitchecker driver skip dependency units entirely.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //imvet:allow
	// directives. It must be a valid identifier.
	Name string
	// Doc is the one-paragraph description shown by `imvet help`.
	Doc string
	// Run inspects the package and reports diagnostics through the Pass.
	Run func(*Pass) error
}

// A Pass presents one package to an Analyzer.Run and collects its
// diagnostics. Diagnostics reported on lines covered by a matching
// //imvet:allow directive are dropped here, so individual analyzers never
// need to know about suppression.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	allow  directiveIndex
	diags  *[]Diagnostic
	shared map[any]any
}

// Shared returns the package-scoped value for key, computing and caching it
// on first use. The cache lives for one RunAnalyzers call over one package
// and is shared by every analyzer in the suite: the dataflow layer
// (internal/analysis/dataflow) stores its function index, CFGs and call graph
// under a private key here, so seven analyzers pay for one construction.
// Analyzers run sequentially over a package, so no locking is needed.
func (p *Pass) Shared(key any, compute func() any) any {
	if v, ok := p.shared[key]; ok {
		return v
	}
	v := compute()
	p.shared[key] = v
	return v
}

// A Diagnostic is one reported invariant violation.
type Diagnostic struct {
	// Analyzer is the name of the analyzer that reported it.
	Analyzer string
	// Pos locates the violation.
	Pos token.Pos
	// Message states the violation. By convention it names the offending
	// symbol and the contract it breaks.
	Message string
}

// Reportf reports a diagnostic at pos unless an //imvet:allow directive for
// this analyzer covers the line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	posn := p.Fset.Position(pos)
	if p.allow.allows(posn.Filename, posn.Line, p.Analyzer.Name) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// SourceFiles returns the package files that are not test files. Every imvet
// analyzer checks production code only: the determinism and resource
// contracts are serving-path contracts, and tests legitimately use wall
// clocks, throwaway files and dropped errors.
func (p *Pass) SourceFiles() []*ast.File {
	files := make([]*ast.File, 0, len(p.Files))
	for _, f := range p.Files {
		name := p.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, f)
	}
	return files
}

// Preorder calls fn for every node in every non-test file, in depth-first
// order. It is the traversal every analyzer starts from.
func (p *Pass) Preorder(fn func(ast.Node)) {
	for _, f := range p.SourceFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			if n != nil {
				fn(n)
			}
			return true
		})
	}
}

// HasPackageDirective reports whether any file in the package carries the
// given //imvet:<name> package-level directive (for example
// //imvet:deterministic, which opts a package into the nodet contract
// regardless of its import path).
func (p *Pass) HasPackageDirective(name string) bool {
	want := directivePrefix + name
	for _, f := range p.SourceFiles() {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if text == want || strings.HasPrefix(text, want+" ") {
					return true
				}
			}
		}
	}
	return false
}

// RunAnalyzers type-checks nothing and loads nothing: it simply runs each
// analyzer over an already-loaded package and returns the surviving
// diagnostics sorted by position. It is the single execution path shared by
// the unitchecker driver, the standalone driver and the analysistest harness,
// so suppression and ordering behave identically everywhere.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	allow := indexDirectives(pkg.Fset, pkg.Files)
	shared := map[any]any{}
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			allow:     allow,
			diags:     &diags,
			shared:    shared,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.PkgPath, err)
		}
	}
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// TypeName reports whether t (after pointer indirection) is the named type
// pkgPath.name. It is the shared type test the analyzers use to recognize
// rng.Source, rand.Rand and friends.
func TypeName(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// IsPkgFunc reports whether the call expression invokes the package-level
// function pkgPath.name (for example time.Now).
func IsPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name && fn.Type().(*types.Signature).Recv() == nil
}

// CalleeFunc returns the *types.Func a call statically resolves to, or nil
// for calls through function values, conversions and built-ins.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
