package analyzers

import (
	"go/ast"

	"pktclass/internal/lint/analysis"
	"pktclass/internal/lint/facts"
)

// AtomicPin enforces the one-Load-per-batch protocol on //pclass:pinned
// atomic pointer fields inside //pclass:pinned functions.
var AtomicPin = &analysis.Analyzer{
	Name:        "atomicpin",
	SuppressKey: "pin",
	Doc: `enforce pin-once discipline on //pclass:pinned atomic.Pointer fields

The serving layer publishes engine hot-swaps through one atomic.Pointer:
correctness under churn depends on each batch pinning that pointer with
exactly one Load and classifying everything against the pinned local. PR
8 shipped the violation: per-worker engine loads let a single scattered
batch span two ruleset versions, which the raced version-window test
caught as decisions outside any committed window.

Inside a function annotated //pclass:pinned, a field annotated
//pclass:pinned (the hot-swap atomic.Pointer) may only be touched as the
receiver of Load(), and a second Load of the same field must not be
reachable from the first — across branches, and through loop back edges,
so a Load inside a per-worker or per-packet loop is flagged even though
it executes "once per iteration". Pin the first Load in a local and pass
that. Re-loading is occasionally the protocol (a loop whose body IS the
batch scope); such a site gets //pclass:allow-pin with a sentence saying
why the window is sound. Store/Swap/CompareAndSwap on the pinned field
belong to the swap path, never to a pinned (reader) function.`,
	Run: runAtomicPin,
}

func runAtomicPin(pass *analysis.Pass) error {
	funcDecls(pass, func(fd *ast.FuncDecl) {
		if !annotatedFunc(fd, "pinned") {
			return
		}
		checkAtomicPin(pass, fd)
	})
	return nil
}

// checkAtomicPin runs the pin-once flow analysis over one annotated
// function.
func checkAtomicPin(pass *analysis.Pass, fd *ast.FuncDecl) {
	cfg := analysis.BuildCFG(fd.Body)

	// loadSelectors maps each pinned-field selector that is the receiver
	// of a .Load() call to its field key; every other mention of a pinned
	// field is a protocol break reported outright.
	loadSelectors := make(map[*ast.SelectorExpr]string)
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			analysis.InspectNode(n, func(x ast.Node) bool {
				call, ok := x.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Load" || len(call.Args) != 0 {
					return true
				}
				if fsel, key, ok := pinnedFieldOperand(pass, sel.X); ok {
					loadSelectors[fsel] = key
				}
				return true
			})
		}
	}
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			analysis.InspectNode(n, func(x ast.Node) bool {
				sel, ok := x.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				key, pkg, ok := fieldKey(pass.TypesInfo, sel)
				if !ok || !pass.FactsFor(pkg).HasPinnedField(key) {
					return true
				}
				if _, isLoad := loadSelectors[sel]; !isLoad {
					pass.Reportf(sel.Pos(),
						"//pclass:pinned field %s may only be Load()ed in a //pclass:pinned function; use the pinned local (PR-8 version-window class)", key)
				}
				return false
			})
		}
	}

	// Flow part: a Load reachable from a previous Load of the same field
	// re-opens the version window.
	transfer := func(n ast.Node, state analysis.FlowSet) {
		analysis.InspectNode(n, func(x ast.Node) bool {
			if sel, ok := x.(*ast.SelectorExpr); ok {
				if key, isLoad := loadSelectors[sel]; isLoad {
					state.Add(key)
				}
			}
			return true
		})
	}
	in := analysis.Forward(cfg, transfer)
	analysis.VisitBlocks(cfg, in, transfer, func(_ *analysis.Block, n ast.Node, state analysis.FlowSet) {
		// Walk loads in source order within the node so that two loads in
		// one statement are caught too.
		local := state.Clone()
		analysis.InspectNode(n, func(x ast.Node) bool {
			sel, ok := x.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			key, isLoad := loadSelectors[sel]
			if !isLoad {
				return true
			}
			if local.Has(key) {
				pass.Reportf(sel.Pos(),
					"pinned field %s is Load()ed again on a path that already pinned it; one batch must land on one engine version (PR-8 version-window class)", key)
			}
			local.Add(key)
			return true
		})
	})
}

// pinnedFieldOperand reports whether expr is a selection of a
// //pclass:pinned field, returning the selector and its fact key.
func pinnedFieldOperand(pass *analysis.Pass, expr ast.Expr) (*ast.SelectorExpr, string, bool) {
	sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	key, pkg, ok := fieldKey(pass.TypesInfo, sel)
	if !ok || !pass.FactsFor(pkg).HasPinnedField(key) {
		return nil, "", false
	}
	return sel, key, true
}

// annotatedFunc reports whether a function declaration carries the given
// //pclass: annotation.
func annotatedFunc(fd *ast.FuncDecl, name string) bool {
	return facts.Annotated(fd.Doc, name)
}
