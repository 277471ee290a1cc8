package stridebv

// RaceEnabled lets the external test package scale its tables down under
// the race detector.
const RaceEnabled = raceEnabled

// Programmed exposes what a build leaves behind — stage blocks, lead
// summaries, populations and walk order — to the bulk build's oracle test.
func (m *Memory) Programmed() (blk [][]uint64, lead []uint64, ones, order []int) {
	return m.blk, m.lead, m.ones, m.order
}

// DeriveLead derives the lead summaries afresh from the stored stage
// vectors under m's own walk order, one group row at a time, apart from
// the code that builds and maintains them: bit w of row g·2^(span·k) + a
// is set iff word w of the AND of the stage vectors group g's strides
// a₀‖a₁… address is nonzero.
func (m *Memory) DeriveLead() []uint64 {
	span := leadSpan(m.k)
	rows := 1 << uint(span*m.k)
	lead := make([]uint64, leadStages/span*rows*m.sumWords)
	for g := 0; g < leadStages/span; g++ {
		for a := 0; a < rows; a++ {
			and := m.StageVector(m.order[g*span], a>>uint((span-1)*m.k)).Clone()
			for p := 1; p < span; p++ {
				c := a >> uint((span-1-p)*m.k) & (1<<uint(m.k) - 1)
				and.AndWith(m.StageVector(m.order[g*span+p], c))
			}
			for w, word := range and.Words() {
				if word != 0 {
					lead[(g*rows+a)*m.sumWords+w/64] |= 1 << uint(w%64)
				}
			}
		}
	}
	return lead
}

// Compatible is the bit-probe oracle, for patterns of any width.
var Compatible = compatibleBits
