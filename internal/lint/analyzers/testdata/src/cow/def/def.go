// Package def declares the copy-on-write storage side of the cowwrite
// fixtures, mirroring internal/stridebv's COW bitvector.
package def

// Vector is a COW word vector: children share Mem and Sum with their
// parent until a mutation detaches the touched region.
type Vector struct {
	// Mem is the copy-on-write word storage.
	//
	//pclass:cow
	Mem []uint64
	// Sum is the summary layer, aliased the same way.
	//
	//pclass:cow
	Sum   []uint64
	owned []bool
}

// SetBit is the blessed mutation point: it detaches the touched word
// before writing.
//
//pclass:cow-mutator
func (v *Vector) SetBit(w int, mask uint64) {
	if !v.owned[w] {
		fresh := make([]uint64, len(v.Mem))
		copy(fresh, v.Mem)
		v.Mem = fresh
		v.owned[w] = true
	}
	v.Mem[w] |= mask
}

// insertBuggy is the pre-fix PR-7 shape verbatim: the write lands in the
// shared word without detaching it first, so mutating a child silently
// edits its COW parent's ruleset.
func (v *Vector) insertBuggy(w int, mask uint64) {
	v.Mem[w] |= mask                   // want `write into //pclass:cow storage Vector.Mem outside a //pclass:cow-mutator`
	v.Sum[w/64] |= 1 << (uint(w) % 64) // want `write into //pclass:cow storage Vector.Sum`
}

// reset replaces the storage headers: pointing the fields at fresh
// storage is the copy-on-write discipline itself, never flagged.
func (v *Vector) reset(n int) {
	v.Mem = make([]uint64, n)
	v.Sum = make([]uint64, (n+63)/64)
}

// Clone returns detached, caller-owned word storage.
func (v *Vector) Clone() []uint64 {
	out := make([]uint64, len(v.Mem))
	copy(out, v.Mem)
	return out
}

// Word is one mutable cell with a mutator method.
type Word struct{ Bits uint64 }

// Set writes through its receiver.
//
//pclass:mutates
func (w *Word) Set(i uint) { w.Bits |= 1 << i }

// Table holds COW row storage of mutable cells.
type Table struct {
	// Rows is COW row storage.
	//
	//pclass:cow
	Rows []Word
}

// initRows builds fresh storage and initializes it; the write is an
// audited escape because nothing can alias storage made two lines up.
func (t *Table) initRows(n int) {
	t.Rows = make([]Word, n)
	for i := range t.Rows {
		//pclass:allow-cow storage freshly made above; no snapshot aliases it yet
		t.Rows[i].Set(0)
	}
}

// Grid holds slice-of-slice COW storage.
type Grid struct {
	// Cells rows are shared with snapshots.
	//
	//pclass:cow
	Cells [][]uint64
}

// makeCells allocates rows zeroed rows of words words.
func makeCells(rows, words int) [][]uint64 {
	cells := make([][]uint64, rows)
	for r := range cells {
		cells[r] = make([]uint64, words)
	}
	return cells
}

// buildGrid is the fill-then-attach constructor shape: it fills rows a
// call just returned and attaches them afterwards. Clean without an
// escape: until the field is assigned no snapshot can hold the rows.
func buildGrid(rows, words int, fill uint64) *Grid {
	cells := makeCells(rows, words)
	for r := range cells {
		cells[r][0] = fill
	}
	g := new(Grid)
	g.Cells = cells
	return g
}

// buildGridAttached is the same loop storing through the field: attached
// first, the rows are COW storage like any other and the fill is flagged.
func buildGridAttached(rows, words int, fill uint64) *Grid {
	g := &Grid{Cells: makeCells(rows, words)}
	for r := range g.Cells {
		g.Cells[r][0] = fill // want `write into //pclass:cow storage Grid.Cells outside a //pclass:cow-mutator`
	}
	return g
}

// Front embeds the COW vector the way stridebv's engines embed their stage
// memory: Mem and Sum are promoted, and stay COW storage under that name.
type Front struct {
	Vector
	Rules int
}
