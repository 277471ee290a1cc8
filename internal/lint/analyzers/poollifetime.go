package analyzers

import (
	"go/ast"
	"go/types"

	"pktclass/internal/lint/analysis"
	"pktclass/internal/lint/facts"
)

// PoolLifetime flags uses of a pooled object after the call that may have
// returned it to the pool.
var PoolLifetime = &analysis.Analyzer{
	Name:        "poollifetime",
	SuppressKey: "pooled",
	Doc: `forbid touching a //pclass:pooled object after its //pclass:releases call

The batch scratch that makes the fast paths allocation-free comes from
sync.Pools, and a pooled object's lifetime ends at the call that may
return it — release it, then read one more field, and the read races the
next Get on another goroutine. PR 8 shipped exactly that: the steered
dispatch loop kept indexing sc.tasks after its last live task had been
sent, so a finishing worker could recycle the scratch under the
iteration (observed as a double-close of the batch's Pending).

The analyzer tracks function-local values that are pool-managed — locals
of a //pclass:pooled type (including parameters and receivers), values
returned by a //pclass:pooled getter, and sync.Pool.Get results — and
runs a forward may-analysis over the function's control-flow graph: once
a path passes a call that may release the value (a //pclass:releases
function taking it as receiver or argument, or sync.Pool.Put), any later
read, index, send, or call on that path is flagged, including uses
reached through a loop back edge. A deferred release runs at function
exit and poisons nothing. Reassigning the variable from a fresh source
ends the released state. Aliases are not tracked: the protocol is that
the variable handed to the release IS the handle whose lifetime ends.
Suppress with //pclass:allow-pooled and say which reference keeps the
object live.`,
	Run: runPoolLifetime,
}

func runPoolLifetime(pass *analysis.Pass) error {
	funcDecls(pass, func(fd *ast.FuncDecl) {
		checkPoolLifetime(pass, fd)
	})
	return nil
}

// poolFlow is the per-function state of the pool-lifetime check.
type poolFlow struct {
	pass *analysis.Pass
	// pooled is the set of tracked local variables; releasedBy names, for
	// diagnostics, the releasing callee last seen for each variable.
	pooled     map[*types.Var]bool
	releasedBy map[*types.Var]string
}

func checkPoolLifetime(pass *analysis.Pass, fd *ast.FuncDecl) {
	cfg := analysis.BuildCFG(fd.Body)
	pf := &poolFlow{
		pass:       pass,
		pooled:     make(map[*types.Var]bool),
		releasedBy: make(map[*types.Var]string),
	}
	// Seed: receiver and parameters of pooled types are pool-managed for
	// the whole call, locals join as they are assigned from pooled
	// sources (tracked flow-insensitively here; the release state is the
	// flow-sensitive part).
	for _, field := range fieldVars(pass, fd) {
		if pf.isPooledType(field.Type()) {
			pf.pooled[field] = true
		}
	}
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			pf.collectPooledDefs(n)
		}
	}
	if len(pf.pooled) == 0 {
		return
	}

	in := analysis.Forward(cfg, pf.transfer)
	analysis.VisitBlocks(cfg, in, pf.transfer, func(_ *analysis.Block, n ast.Node, state analysis.FlowSet) {
		pf.checkNode(n, state)
	})
}

// fieldVars lists the receiver, parameter, and named-result variables of a
// function declaration.
func fieldVars(pass *analysis.Pass, fd *ast.FuncDecl) []*types.Var {
	var out []*types.Var
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
					out = append(out, v)
				}
			}
		}
	}
	add(fd.Recv)
	if fd.Type.Params != nil {
		add(fd.Type.Params)
	}
	if fd.Type.Results != nil {
		add(fd.Type.Results)
	}
	return out
}

// isPooledType reports whether t (or what it points to) is a
// //pclass:pooled named type.
func (pf *poolFlow) isPooledType(t types.Type) bool {
	n := namedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return pf.pass.FactsFor(n.Obj().Pkg()).HasPooledType(n.Obj().Name())
}

// collectPooledDefs marks locals assigned from a pooled source: a
// //pclass:pooled getter call, a sync.Pool.Get (possibly through a type
// assertion), or any value of a pooled type.
func (pf *poolFlow) collectPooledDefs(n ast.Node) {
	as, ok := n.(*ast.AssignStmt)
	if !ok {
		return
	}
	pooledRHS := false
	if len(as.Rhs) == 1 {
		rhs := ast.Unparen(as.Rhs[0])
		if ta, ok := rhs.(*ast.TypeAssertExpr); ok && ta.Type != nil {
			rhs = ast.Unparen(ta.X)
		}
		if call, ok := rhs.(*ast.CallExpr); ok {
			fn := calleeFunc(pf.pass.TypesInfo, call)
			if isSyncPoolMethod(fn, "Get") {
				pooledRHS = true
			} else if fn != nil && funcFacts(pf.pass, fn).HasPooledFunc(facts.FuncKey(fn)) {
				pooledRHS = true
			}
		}
	}
	for _, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			continue
		}
		v := lhsVar(pf.pass.TypesInfo, id)
		if v == nil {
			continue
		}
		if pooledRHS && !isBoolType(v.Type()) || pf.isPooledType(v.Type()) {
			pf.pooled[v] = true
		}
	}
}

// transfer applies one node's release/kill effects: calls that may return
// a tracked value to the pool mark it released; reassigning the variable
// clears the state. Deferred releases run at function exit and generate
// nothing.
func (pf *poolFlow) transfer(n ast.Node, state analysis.FlowSet) {
	if _, ok := n.(*ast.DeferStmt); ok {
		return
	}
	analysis.InspectNode(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, v := range pf.releasedVars(call) {
			state.Add(v)
		}
		return true
	})
	if as, ok := n.(*ast.AssignStmt); ok {
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if v := lhsVar(pf.pass.TypesInfo, id); v != nil {
					state.Remove(v)
				}
			}
		}
	}
}

// releasedVars lists the tracked variables a call may return to the pool:
// the receiver and plain-identifier arguments of a //pclass:releases
// function, or the argument of sync.Pool.Put.
func (pf *poolFlow) releasedVars(call *ast.CallExpr) []*types.Var {
	fn := calleeFunc(pf.pass.TypesInfo, call)
	if fn == nil {
		return nil
	}
	releases := funcFacts(pf.pass, fn).HasReleaseFunc(facts.FuncKey(fn)) || isSyncPoolMethod(fn, "Put")
	if !releases {
		return nil
	}
	var out []*types.Var
	appendVar := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if v, ok := pf.pass.TypesInfo.Uses[id].(*types.Var); ok && pf.pooled[v] {
				pf.releasedBy[v] = fn.Name()
				out = append(out, v)
			}
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		appendVar(sel.X)
	}
	for _, arg := range call.Args {
		appendVar(arg)
	}
	return out
}

// checkNode reports tracked variables used while in the released state.
// State is the set of variables released BEFORE this node, so a releasing
// call's own handle mention is never flagged — unless the variable was
// already released on the path, which is exactly a double release.
// Identifiers being plainly reassigned are kills, not uses.
func (pf *poolFlow) checkNode(n ast.Node, state analysis.FlowSet) {
	skip := make(map[*ast.Ident]bool)
	if as, ok := n.(*ast.AssignStmt); ok {
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				skip[id] = true
			}
		}
	}
	analysis.InspectNode(n, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok || skip[id] {
			return true
		}
		v, ok := pf.pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || !pf.pooled[v] || !state.Has(v) {
			return true
		}
		by := pf.releasedBy[v]
		if by == "" {
			by = "its release"
		}
		pf.pass.Reportf(id.Pos(),
			"pooled %s is used after %s may have returned it to the pool; a concurrent Get can be mutating it (PR-8 steered-scratch class)",
			v.Name(), by)
		return true
	})
}

// lhsVar resolves an assignment target identifier to its variable, via
// Defs for := definitions and Uses for plain assignment.
func lhsVar(info *types.Info, id *ast.Ident) *types.Var {
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := info.Uses[id].(*types.Var)
	return v
}

func isBoolType(t types.Type) bool {
	b, ok := types.Unalias(t).Underlying().(*types.Basic)
	return ok && b.Info()&types.IsBoolean != 0
}
