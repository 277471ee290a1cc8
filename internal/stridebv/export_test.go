package stridebv

// RaceEnabled lets the external test package scale its tables down under
// the race detector.
const RaceEnabled = raceEnabled

// Programmed exposes what a build leaves behind — stage blocks, summaries,
// populations and walk order — to the bulk build's oracle test.
func (m *Memory) Programmed() (blk, sum [][]uint64, ones, order []int) {
	return m.blk, m.sum, m.ones, m.order
}

// Compatible is the bit-probe oracle, for patterns of any width.
var Compatible = compatibleBits
