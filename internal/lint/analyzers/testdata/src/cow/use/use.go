// Package use reproduces PR-7's aliased COW writes against cow/def's
// cross-package facts, including flow-tracked aliases of the storage.
package use

import "cow/def"

// sweepBuggy: an element write straight through the imported field.
func sweepBuggy(v *def.Vector, mask uint64) {
	v.Mem[0] |= mask // want `write into //pclass:cow storage Vector.Mem`
}

// rowBuggy: the storage leaks into a local sub-slice first; the write
// through the alias is still a write into shared words.
func rowBuggy(v *def.Vector, off, end int, mask uint64) {
	row := v.Mem[off:end]
	row[0] |= mask // want `write into an alias of //pclass:cow storage \(row\)`
}

// branchLeak: the alias is taken on only one path; the may-analysis
// guards the join.
func branchLeak(v *def.Vector, hot bool, mask uint64) {
	w := make([]uint64, 4)
	if hot {
		w = v.Mem
	}
	w[0] |= mask // want `write into an alias of //pclass:cow storage \(w\)`
}

// copyBuggy: copy writes through its destination's backing array even
// without an explicit index.
func copyBuggy(v *def.Vector, src []uint64) {
	copy(v.Sum, src) // want `write into //pclass:cow storage Vector.Sum`
}

// mutateBuggy: a //pclass:mutates method on a cell borrowed from COW
// storage writes into the shared rows.
func mutateBuggy(t *def.Table, r int, i uint) {
	row := &t.Rows[r]
	row.Set(i) // want `write into an alias of //pclass:cow storage \(row\)`
}

// mutateDirect: the same write through the field directly.
func mutateDirect(t *def.Table, r int, i uint) {
	t.Rows[r].Set(i) // want `write into //pclass:cow storage Table.Rows`
}

// rangeBuggy: ranging over slice-of-slice storage hands out element
// aliases through the value variable.
func rangeBuggy(g *def.Grid) {
	for _, row := range g.Cells {
		row[0] = 0 // want `write into an alias of //pclass:cow storage \(row\)`
	}
}

// promotedBuggy: the field reached through an embedding struct is the
// same shared storage, whichever way the selector spells it.
func promotedBuggy(f *def.Front, mask uint64) {
	f.Mem[0] |= mask        // want `write into //pclass:cow storage Vector.Mem`
	f.Vector.Sum[0] |= mask // want `write into //pclass:cow storage Vector.Sum`
}

// cloneClean: call results are detached storage; writes are free.
func cloneClean(v *def.Vector) []uint64 {
	fresh := v.Clone()
	fresh[0] = 1
	return fresh
}

// reuseClean: reassignment from a clean source ends the taint.
func reuseClean(v *def.Vector, n int) {
	buf := v.Mem
	buf = make([]uint64, n)
	buf[0] = 1
	_ = buf
}

// setClean: the blessed path routes through the mutator.
func setClean(v *def.Vector, w int, mask uint64) {
	v.SetBit(w, mask)
}
