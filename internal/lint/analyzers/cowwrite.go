package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"pktclass/internal/lint/analysis"
	"pktclass/internal/lint/facts"
)

// CowWrite confines element writes into //pclass:cow storage to
// //pclass:cow-mutator functions.
var CowWrite = &analysis.Analyzer{
	Name:        "cowwrite",
	SuppressKey: "cow",
	Doc: `confine writes into //pclass:cow storage to //pclass:cow-mutator functions

Copy-on-write snapshots share backing arrays between parent and child
until a mutation detaches the touched region. That only works if every
in-place write funnels through the one mutation point that knows how to
un-alias first. PR 7 shipped the violation: bit writes went straight into
the shared words, so mutating a child silently edited its COW parent's
ruleset (caught as cross-snapshot corruption after Clone).

A field annotated //pclass:cow is such shared storage. In any function
not annotated //pclass:cow-mutator, the analyzer flags element writes
whose destination reaches the storage — an index or pointer store through
the field itself, through an alias of it (a local assigned the field, a
sub-slice of it, or a range over it), copy() with such a destination, and
calls of //pclass:mutates methods on values derived from it. Aliases are
tracked flow-sensitively, so storage that leaks into a local two branches
earlier is still guarded. Replacing the field header itself (s.mem =
fresh) is NOT flagged — pointing the field at fresh storage is exactly
the copy-on-write discipline. Results of calls are treated as detached
(Clone returns owned storage); an accessor that returns an interior alias
defeats that assumption and must be annotated or avoided. Suppress with
//pclass:allow-cow and say why the write cannot reach a shared word.`,
	Run: runCowWrite,
}

func runCowWrite(pass *analysis.Pass) error {
	funcDecls(pass, func(fd *ast.FuncDecl) {
		if annotatedFunc(fd, "cow-mutator") {
			return
		}
		checkCowWrite(pass, fd)
	})
	return nil
}

// cowFlow is the per-function alias-taint state of the cowwrite check.
type cowFlow struct {
	pass *analysis.Pass
}

func checkCowWrite(pass *analysis.Pass, fd *ast.FuncDecl) {
	cfg := analysis.BuildCFG(fd.Body)
	cf := &cowFlow{pass: pass}
	in := analysis.Forward(cfg, cf.transfer)
	analysis.VisitBlocks(cfg, in, cf.transfer, func(_ *analysis.Block, n ast.Node, state analysis.FlowSet) {
		cf.checkNode(n, state)
	})
}

// chain describes how an expression relates to //pclass:cow storage: cow
// is true when a selector along the access path is an annotated field,
// base is the path's root local (nil when rooted elsewhere), and stores
// is true when the path writes through an index or pointer dereference —
// i.e. into backing storage rather than over a variable or field header.
type chain struct {
	cow    bool
	cowKey string
	base   *types.Var
	stores bool
}

// walkChain resolves an expression's access path.
func (cf *cowFlow) walkChain(e ast.Expr) chain {
	var c chain
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			c.stores = true
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			c.stores = true
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.SelectorExpr:
			if key, pkg, ok := fieldKey(cf.pass.TypesInfo, x); ok && cf.pass.FactsFor(pkg).HasCowField(key) {
				c.cow = true
				c.cowKey = key
			}
			e = x.X
		case *ast.Ident:
			c.base, _ = cf.pass.TypesInfo.Uses[x].(*types.Var)
			return c
		default:
			return c
		}
	}
}

// aliasesCow reports whether an expression may reference //pclass:cow
// storage under the current taint state. Call results are treated as
// detached copies (Clone and friends return owned storage).
func (cf *cowFlow) aliasesCow(e ast.Expr, state analysis.FlowSet) (chain, bool) {
	c := cf.walkChain(e)
	return c, c.cow || (c.base != nil && state.Has(c.base))
}

// transfer tracks alias taint: a local assigned a value that reaches cow
// storage becomes tainted; reassignment from a clean source clears it.
func (cf *cowFlow) transfer(n ast.Node, state analysis.FlowSet) {
	switch x := n.(type) {
	case *ast.AssignStmt:
		// Only 1:1 assignments can forward an alias; multi-value RHSes are
		// call/comma-ok results, which are detached.
		for i, lhs := range x.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			v := lhsVar(cf.pass.TypesInfo, id)
			if v == nil {
				continue
			}
			tainted := false
			if len(x.Lhs) == len(x.Rhs) {
				_, tainted = cf.aliasesCow(ast.Unparen(x.Rhs[i]), state)
			}
			if tainted {
				state.Add(v)
			} else {
				state.Remove(v)
			}
		}
	case *ast.RangeStmt:
		// Ranging over cow storage hands out element aliases via the value
		// variable (relevant for slice-of-slice storage).
		if _, tainted := cf.aliasesCow(x.X, state); !tainted {
			return
		}
		if id, ok := x.Value.(*ast.Ident); ok && id != nil {
			if v := lhsVar(cf.pass.TypesInfo, id); v != nil {
				state.Add(v)
			}
		}
	}
}

// checkNode reports element writes that reach cow storage: index/pointer
// stores, ++/--, copy() destinations, and //pclass:mutates method calls
// on cow-derived values.
func (cf *cowFlow) checkNode(n ast.Node, state analysis.FlowSet) {
	switch x := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range x.Lhs {
			cf.checkStore(ast.Unparen(lhs), state)
		}
	case *ast.IncDecStmt:
		cf.checkStore(ast.Unparen(x.X), state)
	}
	analysis.InspectNode(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		cf.checkCall(call, state)
		return true
	})
}

// checkStore flags a destination whose access path writes into cow
// storage.
func (cf *cowFlow) checkStore(dst ast.Expr, state analysis.FlowSet) {
	c, aliases := cf.aliasesCow(dst, state)
	if !aliases || !c.stores {
		return
	}
	cf.report(dst.Pos(), c)
}

// checkCall flags copy() into cow storage and //pclass:mutates method
// calls on cow-derived receivers.
func (cf *cowFlow) checkCall(call *ast.CallExpr, state analysis.FlowSet) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "copy" && len(call.Args) == 2 {
		if _, isBuiltin := cf.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			// copy writes through the destination's backing array even when
			// the destination is a bare alias, so no index is required.
			if c, aliases := cf.aliasesCow(ast.Unparen(call.Args[0]), state); aliases {
				cf.report(call.Args[0].Pos(), c)
			}
			return
		}
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn := calleeFunc(cf.pass.TypesInfo, call)
	if fn == nil || !funcFacts(cf.pass, fn).HasMutatorMethod(facts.FuncKey(fn)) {
		return
	}
	if c, aliases := cf.aliasesCow(sel.X, state); aliases {
		cf.report(call.Pos(), c)
	}
}

func (cf *cowFlow) report(pos token.Pos, c chain) {
	what := "//pclass:cow storage"
	if c.cowKey != "" {
		what = "//pclass:cow storage " + c.cowKey
	} else if c.base != nil {
		what = "an alias of //pclass:cow storage (" + c.base.Name() + ")"
	}
	cf.pass.Reportf(pos,
		"write into %s outside a //pclass:cow-mutator; parent and child snapshots may share this backing array (PR-7 aliased-write class)", what)
}
