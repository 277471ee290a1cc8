// Package analyzers holds pclasslint's domain-specific checks: the
// engine-room invariants of this repository that the Go compiler cannot
// see: allocation-free hot paths, immutable shared rulesets, no
// classification under a lock, and the pooled-lifetime, pinned-load and
// copy-on-write protocols of the serving and update paths.
package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"pktclass/internal/lint/analysis"
	"pktclass/internal/lint/facts"
)

// HotPathAlloc flags allocating constructs inside //pclass:hotpath
// functions.
var HotPathAlloc = &analysis.Analyzer{
	Name:        "hotpathalloc",
	SuppressKey: "alloc",
	Doc: `forbid allocation in //pclass:hotpath functions

The batched classification fast paths (ClassifyBatch implementations,
flowcache probe/insert, bitvec kernels, packet.Key.StridesInto) promise
zero allocations per operation; benchmarks gate the property but only a
static check keeps a stray make/append/fmt call out of a rarely-taken
branch. Inside an annotated function the analyzer flags make, new,
append, fmt.* calls, string concatenation and string<->[]byte/[]rune
conversions, slice/map composite literals, address-taken composite
literals, closures and go statements. Arguments of panic calls are
exempt (the invariant-violation path is allowed to allocate while
dying). Suppress a finding with //pclass:allow-alloc.`,
	Run: runHotPathAlloc,
}

func runHotPathAlloc(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !facts.Annotated(fd.Doc, "hotpath") {
				continue
			}
			checkHotPathBody(pass, fd.Body)
		}
	}
	return nil
}

// checkHotPathBody walks one annotated function body, skipping panic
// arguments and not descending into closure bodies (the closure literal
// itself is already the finding).
func checkHotPathBody(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if isBuiltin(info, x.Fun, "panic") {
				return false // dying path: message construction is exempt
			}
			switch {
			case isBuiltin(info, x.Fun, "make"):
				pass.Reportf(x.Pos(), "hot path calls make, which allocates")
			case isBuiltin(info, x.Fun, "new"):
				pass.Reportf(x.Pos(), "hot path calls new, which allocates")
			case isBuiltin(info, x.Fun, "append"):
				pass.Reportf(x.Pos(), "hot path calls append, which may grow its backing array")
			default:
				if name, ok := pkgFuncName(info, x.Fun, "fmt"); ok {
					pass.Reportf(x.Pos(), "hot path calls fmt.%s, which allocates", name)
				} else if msg, ok := allocatingConversion(info, x); ok {
					pass.Reportf(x.Pos(), "hot path %s", msg)
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isStringType(info.TypeOf(x)) {
				pass.Reportf(x.OpPos, "hot path concatenates strings, which allocates")
			}
		case *ast.CompositeLit:
			switch types.Unalias(info.TypeOf(x)).Underlying().(type) {
			case *types.Slice:
				pass.Reportf(x.Pos(), "hot path builds a slice literal, which allocates")
			case *types.Map:
				pass.Reportf(x.Pos(), "hot path builds a map literal, which allocates")
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := x.X.(*ast.CompositeLit); ok {
					pass.Reportf(x.Pos(), "hot path takes the address of a composite literal, which may escape to the heap")
					return false
				}
			}
		case *ast.FuncLit:
			pass.Reportf(x.Pos(), "hot path builds a closure, which may escape to the heap")
			return false
		case *ast.GoStmt:
			pass.Reportf(x.Pos(), "hot path starts a goroutine, which allocates")
		}
		return true
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		return walk(n)
	})
}

// isBuiltin reports whether fun is a use of the named builtin.
func isBuiltin(info *types.Info, fun ast.Expr, name string) bool {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// pkgFuncName matches a call target of the form <pkg>.<Name> for the
// given imported package path and returns Name.
func pkgFuncName(info *types.Info, fun ast.Expr, pkgPath string) (string, bool) {
	sel, ok := ast.Unparen(fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != pkgPath {
		return "", false
	}
	return sel.Sel.Name, true
}

// allocatingConversion detects string <-> []byte / []rune conversions.
func allocatingConversion(info *types.Info, call *ast.CallExpr) (string, bool) {
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return "", false
	}
	dst := types.Unalias(tv.Type).Underlying()
	src := types.Unalias(info.TypeOf(call.Args[0])).Underlying()
	switch {
	case isStringType(dst) && isByteOrRuneSlice(src):
		return "converts a slice to string, which allocates", true
	case isByteOrRuneSlice(dst) && isStringType(src):
		return "converts a string to a slice, which allocates", true
	}
	return "", false
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := types.Unalias(t).Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := types.Unalias(s.Elem()).Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
