// Package lockscope implements the imvet analyzer that polices the lock
// hygiene of imdist's mutex-guarded containers.
//
// This is the exact bug class PR 6 fixed in SketchBuilder.Sets(): an
// exported method on a mutex-holding type returned its internal slice, so
// every caller held a live alias into state the next Append mutated — the
// mutex protected the method body and nothing else. The analyzer flags an
// exported method on a struct with a sync.Mutex/RWMutex field whose return
// statement hands back a slice- or map-typed field (or an element of one)
// reached directly from the receiver. Legitimate zero-copy accessors whose
// ownership contract is documented carry an //imvet:allow lockscope
// annotation with the justification.
package lockscope

import (
	"go/ast"
	"go/types"

	"imdist/internal/analysis"
	"imdist/internal/analysis/dataflow"
)

// Analyzer is the lockscope pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockscope",
	Doc: "flag exported methods on mutex-holding types that return internal slices/maps " +
		"(aliasing guarded state); return a copy, or document the ownership contract and " +
		"annotate with //imvet:allow lockscope",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, fn := range dataflow.PackageInfo(pass).Funcs {
		fd := fn.Decl
		if fd.Recv == nil || !fd.Name.IsExported() {
			continue
		}
		recv := receiverVar(pass.TypesInfo, fd)
		if recv == nil || !dataflow.HoldsMutex(recv.Type()) {
			continue
		}
		checkMethod(pass, fd, recv)
	}
	return nil
}

// receiverVar returns the receiver variable of a method declaration, or nil
// for anonymous receivers.
func receiverVar(info *types.Info, fd *ast.FuncDecl) *types.Var {
	if len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	v, _ := info.Defs[fd.Recv.List[0].Names[0]].(*types.Var)
	return v
}

// checkMethod flags return statements that alias guarded state.
func checkMethod(pass *analysis.Pass, fd *ast.FuncDecl, recv *types.Var) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			// A closure returned or stored by the method is a different
			// (harder) leak; returns inside it are not the method's returns.
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if expr, field := aliasesReceiverField(pass.TypesInfo, recv, res); expr != nil {
				t := pass.TypesInfo.Types[expr].Type
				if t == nil {
					continue
				}
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					pass.Reportf(ret.Pos(), "%s returns internal %s %s of mutex-guarded %s: callers keep an alias into state the lock no longer protects; return a copy or annotate the documented ownership contract with //imvet:allow lockscope", fd.Name.Name, typeKind(t), field, recvTypeName(recv))
				}
			}
		}
		return true
	})
}

// aliasesReceiverField matches `recv.f` and `recv.f[i]` result expressions,
// returning the aliasing expression and a printable field path. A deeper
// chain (recv.a.b) is matched through its leftmost selector; calls and
// slicing expressions (which copy headers but are usually deliberate, e.g.
// append-copies) are not matched.
func aliasesReceiverField(info *types.Info, recv *types.Var, e ast.Expr) (ast.Expr, string) {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if rootIs(info, x, recv) {
			return x, fieldPath(x)
		}
	case *ast.IndexExpr:
		if sel, ok := ast.Unparen(x.X).(*ast.SelectorExpr); ok && rootIs(info, sel, recv) {
			return x, fieldPath(sel) + "[...]"
		}
	}
	return nil, ""
}

// rootIs reports whether the selector chain is rooted at the receiver
// variable and every hop is a field access (not a method call result).
func rootIs(info *types.Info, sel *ast.SelectorExpr, recv *types.Var) bool {
	for {
		if s := info.Selections[sel]; s == nil || s.Kind() != types.FieldVal {
			return false
		}
		switch x := ast.Unparen(sel.X).(type) {
		case *ast.Ident:
			return info.Uses[x] == recv
		case *ast.SelectorExpr:
			sel = x
		default:
			return false
		}
	}
}

// fieldPath renders recv.a.b as "a.b" for diagnostics.
func fieldPath(sel *ast.SelectorExpr) string {
	if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
		return fieldPath(inner) + "." + sel.Sel.Name
	}
	return sel.Sel.Name
}

// typeKind names the aliased kind for the diagnostic message.
func typeKind(t types.Type) string {
	if _, ok := t.Underlying().(*types.Map); ok {
		return "map"
	}
	return "slice"
}

// recvTypeName names the receiver type for diagnostics.
func recvTypeName(recv *types.Var) string {
	if name := dataflow.NamedTypeName(recv.Type()); name != "" {
		return name
	}
	return recv.Type().String()
}
