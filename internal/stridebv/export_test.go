package stridebv

import (
	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
)

// RaceEnabled lets the external test package scale its tables down under
// the race detector.
const RaceEnabled = raceEnabled

// Programmed exposes what a build leaves behind — stage blocks, summaries,
// populations and walk order — to the bulk-vs-column differential.
func (m *Memory) Programmed() (blk, sum [][]uint64, ones, order []int) {
	return m.blk, m.sum, m.ones, m.order
}

// NewColumnwise is New as it was before BuildMemory — zeroed memory, then
// one WriteEntry per entry — kept as the reference the bulk build is
// checked against.
func NewColumnwise(ex *ruleset.Expanded, k int) (*Engine, error) {
	m, err := NewMemory(packet.W, k, ex.Len())
	if err != nil {
		return nil, err
	}
	e := &Engine{Memory: m, ex: ex}
	for j, entry := range ex.Entries {
		e.WriteEntry(j, entry.Value[:], entry.Mask[:], !entry.Invalid)
	}
	e.Reorder()
	return e, nil
}
