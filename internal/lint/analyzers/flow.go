package analyzers

// Shared resolution helpers for the flow-sensitive analyzers
// (poollifetime, atomicpin, cowwrite): mapping call expressions to their
// callee objects and annotation facts, and field selections to their
// "Type.Field" fact keys.

import (
	"go/ast"
	"go/types"

	"pktclass/internal/lint/analysis"
	"pktclass/internal/lint/facts"
)

// calleeFunc resolves a call expression's static callee, or nil for
// builtins, conversions, and calls through function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// funcFacts resolves the annotation facts of a function's defining
// package.
func funcFacts(pass *analysis.Pass, fn *types.Func) *facts.Package {
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	return pass.FactsFor(fn.Pkg())
}

// isSyncPoolMethod reports whether fn is (*sync.Pool).<name>.
func isSyncPoolMethod(fn *types.Func, name string) bool {
	if fn == nil || fn.Name() != name || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	t := types.Unalias(sig.Recv().Type())
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "Pool" && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync"
}

// fieldKey returns the "Type.Field" fact key of a field selection along
// with the field's defining package, or ok=false when sel is not a direct
// field selection on a named (possibly pointer-to-named) type, or on a type
// that embeds one.
func fieldKey(info *types.Info, sel *ast.SelectorExpr) (key string, pkg *types.Package, ok bool) {
	s, found := info.Selections[sel]
	if !found || s.Kind() != types.FieldVal {
		return "", nil, false
	}
	field, _ := s.Obj().(*types.Var)
	if field == nil || field.Pkg() == nil {
		return "", nil, false
	}
	// A field promoted through embedding is keyed by the struct that
	// declares it, not by the type it was selected on: step through the
	// embedded fields on the selection's path.
	n := namedOf(s.Recv())
	for _, i := range s.Index()[:len(s.Index())-1] {
		if n == nil {
			return "", nil, false
		}
		n = namedOf(n.Underlying().(*types.Struct).Field(i).Type())
	}
	if n == nil {
		return "", nil, false
	}
	return n.Obj().Name() + "." + field.Name(), field.Pkg(), true
}

// namedOf unwraps pointers and aliases down to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// funcDecls yields every function declaration with a body in the pass.
func funcDecls(pass *analysis.Pass, f func(*ast.FuncDecl)) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				f(fd)
			}
		}
	}
}
