package stridebv

import (
	"fmt"

	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
)

// Modular is the partitioned StrideBV organization from the journal
// follow-up of the StrideBV line ("scalable and modular"): the Ne-bit
// vector is split into ceil(Ne/m) modules of at most m entries, each an
// independent StrideBV pipeline over its slice of the ruleset. All modules
// process the same header in parallel; a small cross-module priority
// select picks the lowest-indexed module hit.
//
// Functionally the result is identical to a monolithic engine. The point
// is physical: stage words shrink from Ne to m bits, so the stage-to-stage
// buses that set the clock at large Ne stay short — clock scalability the
// paper's Section III-A3 argument implies but its evaluation (monolithic,
// N <= 2048) never needed.
type Modular struct {
	modules []*Engine
	width   int
	rules   int
	k       int
}

// NewModular partitions the expanded ruleset into modules of at most
// moduleWidth entries.
func NewModular(ex *ruleset.Expanded, k, moduleWidth int) (*Modular, error) {
	if moduleWidth < 1 {
		return nil, fmt.Errorf("stridebv: module width %d", moduleWidth)
	}
	if ex.Len() == 0 {
		return nil, fmt.Errorf("stridebv: empty ruleset")
	}
	m := &Modular{width: moduleWidth, rules: ex.NumRules, k: k}
	for lo := 0; lo < ex.Len(); lo += moduleWidth {
		hi := lo + moduleWidth
		if hi > ex.Len() {
			hi = ex.Len()
		}
		sub := &ruleset.Expanded{
			Entries:  ex.Entries[lo:hi],
			Parent:   ex.Parent[lo:hi],
			NumRules: ex.NumRules,
		}
		eng, err := New(sub, k)
		if err != nil {
			return nil, err
		}
		m.modules = append(m.modules, eng)
	}
	return m, nil
}

// Name identifies the engine.
func (m *Modular) Name() string {
	return fmt.Sprintf("stridebv-modular-k%d-m%d", m.k, m.width)
}

// NumRules returns N.
func (m *Modular) NumRules() int { return m.rules }

// MemoryBits sums the module stage memories; the total equals the
// monolithic engine's ceil(W/k)·2^k·Ne exactly (partitioning is free in
// bits).
func (m *Modular) MemoryBits() int {
	total := 0
	for _, e := range m.modules {
		total += e.MemoryBits()
	}
	return total
}

// Classify returns the highest-priority matching rule, or -1. Modules are
// priority-ordered, so the first module with any hit owns the answer —
// exactly what the hardware's cross-module select implements.
func (m *Modular) Classify(h packet.Header) int {
	for _, e := range m.modules {
		if r := e.Classify(h); r >= 0 {
			return r
		}
	}
	return -1
}

// MultiMatch returns every matching rule in priority order.
func (m *Modular) MultiMatch(h packet.Header) []int {
	key := h.Key()
	var out []int
	last := -1
	for _, e := range m.modules {
		for _, idx := range e.MatchVector(key).SetBits() {
			p := int(e.parent[idx])
			if p != last {
				out = append(out, p)
				last = p
			}
		}
	}
	return out
}
