// Package use consumes def's immutable types from outside.
package use

import "immut/def"

// engine keeps the expansion it was built over, as stridebv.Engine did
// in PR 2.
type engine struct {
	ex    *def.Expanded
	owned bool
}

// updateEntryBuggy replays PR 2's pre-fix stridebv.UpdateEntry: it
// reprogrammed entry j by writing the shared expansion in place, so
// every other engine built over the same Expanded, and the serving
// layer's verifier, read the new entry before any swap.
func (e *engine) updateEntryBuggy(j, t int) {
	e.ex.Entries[j] = t // want `assignment writes field Entries of //pclass:immutable type def\.Expanded`
}

// updateEntryFixed is PR 2's fix: copy the table on the first update,
// then write the engine's own copy (the audited escape).
func (e *engine) updateEntryFixed(j, t int) {
	if !e.owned {
		e.ex = &def.Expanded{
			Entries: append([]int(nil), e.ex.Entries...),
			Parent:  e.ex.Parent,
			N:       e.ex.N,
		}
		e.owned = true
	}
	e.ex.Entries[j] = t //pclass:allow-mutate private copy made on first update
}

// mutate covers the other write forms.
func (e *engine) mutate(v int) {
	e.ex.N = v                      // want `assignment writes field N of //pclass:immutable type def\.Expanded`
	e.ex.Parent[0]++                // want `update writes field Parent of //pclass:immutable type def\.Expanded`
	copy(e.ex.Entries, e.ex.Parent) // want `copy writes field Entries of //pclass:immutable type def\.Expanded`
}

// read-only access and construction are fine.
func (e *engine) read() int {
	ex := def.Build(4)
	return ex.Entries[0] + e.ex.N + len(e.ex.Parent)
}
