// Dataflow over the function-local CFG: a generic forward may-analysis
// solver and the replay that analyzers report from.
//
// Everything here is a *may* analysis — joins are set unions — because the
// analyzers built on top report protocol violations that are possible on
// some path: a pooled object that MAY have been released before a use, an
// atomic field that MAY already have been loaded, an alias that MAY still
// point into copy-on-write storage. Union joins make those reports
// path-insensitive in exactly the conservative direction.
package analysis

import "go/ast"

// FlowSet is a dataflow state: a set of analysis-chosen keys (typically
// *types.Var locals or "Type.Field" strings).
type FlowSet map[any]struct{}

// Has reports membership.
func (s FlowSet) Has(k any) bool { _, ok := s[k]; return ok }

// Add inserts a key.
func (s FlowSet) Add(k any) { s[k] = struct{}{} }

// Remove deletes a key.
func (s FlowSet) Remove(k any) { delete(s, k) }

// Clone copies the set.
func (s FlowSet) Clone() FlowSet {
	c := make(FlowSet, len(s))
	for k := range s {
		c[k] = struct{}{}
	}
	return c
}

// union merges o into s, reporting whether s grew.
func (s FlowSet) union(o FlowSet) bool {
	grew := false
	for k := range o {
		if _, ok := s[k]; !ok {
			s[k] = struct{}{}
			grew = true
		}
	}
	return grew
}

// Forward solves a forward may-analysis to fixpoint from an empty
// function-entry state and returns each block's entry state. transfer
// applies one node's gen/kill effects to state in place; it must be
// deterministic in state (called repeatedly during iteration and again by
// clients replaying a block).
func Forward(c *CFG, transfer func(n ast.Node, state FlowSet)) map[*Block]FlowSet {
	in := make(map[*Block]FlowSet, len(c.Blocks))
	for _, b := range c.Blocks {
		in[b] = make(FlowSet)
	}
	// Worklist iteration; union joins guarantee monotone growth, so this
	// terminates once every block's in-state is stable.
	work := make([]*Block, len(c.Blocks))
	copy(work, c.Blocks)
	inWork := make([]bool, len(c.Blocks))
	for i := range inWork {
		inWork[i] = true
	}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inWork[b.Index] = false
		out := in[b].Clone()
		for _, n := range b.Nodes {
			transfer(n, out)
		}
		for _, s := range b.Succs {
			if in[s].union(out) && !inWork[s.Index] {
				inWork[s.Index] = true
				work = append(work, s)
			}
		}
	}
	return in
}

// VisitBlocks replays a solved forward analysis over every block: for each
// node it first calls visit with the state *before* the node, then applies
// transfer. This is the standard shape for analyzers that report on uses —
// check, then update.
func VisitBlocks(c *CFG, in map[*Block]FlowSet, transfer func(n ast.Node, state FlowSet), visit func(b *Block, n ast.Node, state FlowSet)) {
	for _, b := range c.Blocks {
		state := in[b].Clone()
		for _, n := range b.Nodes {
			visit(b, n, state)
			transfer(n, state)
		}
	}
}
