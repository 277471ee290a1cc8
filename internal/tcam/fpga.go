package tcam

import (
	"fmt"

	"pktclass/internal/bitvec"
	"pktclass/internal/packet"
	"pktclass/internal/penc"
	"pktclass/internal/ruleset"
	"pktclass/internal/srl"
)

// CellsPerEntry is the number of SRL16E cells one 104-bit ternary entry
// needs at 2 ternary bits per cell.
const CellsPerEntry = packet.W / 2 // 52

// WriteCycles is the clock cost of programming one entry: all of an entry's
// cells shift in parallel, each needing 16 cycles.
const WriteCycles = 16

// FPGA is the SRL16E-based TCAM engine: Ne entries × 52 ternary cells, a
// per-entry match-reduce AND, a pipelined priority encoder, and a control
// block that sequences multi-cycle writes. It is cycle-accounted: every
// operation reports the cycles it consumed, and searches issued during a
// write are rejected, exactly like the hardware. Write is its one write
// path. It is a single-goroutine cycle model, like stridebv.Pipeline:
// Search advances one cycle counter and steps one pipelined priority
// encoder, so an FPGA is not safe for concurrent use and is not served;
// Behavioral gives the same answers to concurrent readers.
type FPGA struct {
	ruleMap
	cells [][]srl.Cell // [entry][cell]
	// valid marks entries programmed with a valid ternary word; the rest
	// (unprogrammed, invalidated, or written with an invalid word) never
	// match.
	valid []bool
	// shadow keeps the programmed ternary words for Read (hardware keeps
	// this in a side RAM since SRL truth tables are not invertible).
	shadow []ruleset.Ternary
	pe     *penc.Pipelined
	// busyUntil is the cycle count until which the write port is occupied.
	cycle     int64
	busyUntil int64
	// writing is the entry whose SRL16Es are currently shifting; its match
	// output is unreliable until busyUntil, so searches must exclude it —
	// the real hazard of in-service SRL TCAM updates.
	writing int
}

// NewFPGA builds and programs an SRL16E TCAM from an expanded ruleset.
// Programming cost (16 cycles/entry, entries written sequentially through
// the single write port) is reflected in the initial cycle counter. The
// TCAM keeps ex's parent map as 4-byte rule indices; ex itself is not
// retained.
func NewFPGA(ex *ruleset.Expanded) *FPGA {
	ne := ex.Len()
	t := &FPGA{
		ruleMap: newRuleMap(ex),
		cells:   make([][]srl.Cell, ne),
		valid:   make([]bool, ne),
		shadow:  make([]ruleset.Ternary, ne),
		pe:      penc.NewPipelined(maxInt(ne, 1)),
		writing: -1,
	}
	for i := range t.cells {
		t.cells[i] = make([]srl.Cell, CellsPerEntry)
	}
	for i, e := range ex.Entries {
		if _, err := t.Write(i, e); err != nil {
			panic("tcam: initial programming failed: " + err.Error())
		}
		t.cycle = t.busyUntil
	}
	return t
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Name identifies the engine.
func (t *FPGA) Name() string { return "tcam-fpga" }

// NumRules returns the original rule count.
func (t *FPGA) NumRules() int { return t.numRules }

// NumEntries returns the entry capacity.
func (t *FPGA) NumEntries() int { return len(t.cells) }

// MemoryBits returns the stored bits of the paper's TCAM model, 2·W·Ne.
func (t *FPGA) MemoryBits() int { return MemoryBits(len(t.cells), packet.W) }

// Cycle returns the current cycle counter.
func (t *FPGA) Cycle() int64 { return t.cycle }

// Advance clocks the TCAM forward n idle cycles (e.g. waiting out a
// write's 16-cycle shift before issuing the next one).
func (t *FPGA) Advance(n int64) {
	if n > 0 {
		t.cycle += n
	}
}

// entryBits extracts the 2-bit slice for cell c of a key/mask byte array.
func entryBits(k packet.Key, c int) uint8 {
	i := 2 * c
	return uint8(k.Bit(i))<<1 | uint8(k.Bit(i+1))
}

// Write programs entry idx with a ternary word, occupying the write port
// for WriteCycles cycles. It returns the cycles consumed. An invalid word
// (ruleset.InvalidTernary) leaves the row matching nothing.
func (t *FPGA) Write(idx int, e ruleset.Ternary) (int, error) {
	if idx < 0 || idx >= len(t.cells) {
		return 0, fmt.Errorf("tcam: entry %d out of range [0,%d)", idx, len(t.cells))
	}
	if t.cycle < t.busyUntil {
		return 0, fmt.Errorf("tcam: write port busy until cycle %d", t.busyUntil)
	}
	for c := 0; c < CellsPerEntry; c++ {
		t.cells[idx][c].Write(entryBits(e.Value, c), entryBits(e.Mask, c))
	}
	t.shadow[idx] = e
	t.valid[idx] = !e.Invalid
	t.busyUntil = t.cycle + WriteCycles
	t.writing = idx
	return WriteCycles, nil
}

// Read returns the ternary word stored at idx (control-block READ op).
func (t *FPGA) Read(idx int) (ruleset.Ternary, error) {
	if idx < 0 || idx >= len(t.cells) {
		return ruleset.Ternary{}, fmt.Errorf("tcam: entry %d out of range [0,%d)", idx, len(t.cells))
	}
	if !t.valid[idx] {
		return ruleset.Ternary{}, fmt.Errorf("tcam: entry %d not programmed", idx)
	}
	return t.shadow[idx], nil
}

// Invalidate disables an entry (per-entry enable, the mechanism ASIC TCAMs
// use for power gating and that row deletion maps to).
func (t *FPGA) Invalidate(idx int) error {
	if idx < 0 || idx >= len(t.cells) {
		return fmt.Errorf("tcam: entry %d out of range [0,%d)", idx, len(t.cells))
	}
	t.valid[idx] = false
	return nil
}

// searchEntries performs the single-cycle parallel compare, returning the
// per-entry match lines.
func (t *FPGA) searchEntries(k packet.Key) []bool {
	match := make([]bool, len(t.cells))
	writing := -1
	if t.cycle < t.busyUntil {
		writing = t.writing
	}
	for e := range t.cells {
		if !t.valid[e] || e == writing {
			continue
		}
		m := true
		for c := 0; c < CellsPerEntry && m; c++ {
			m = t.cells[e][c].MatchBinary(entryBits(k, c))
		}
		match[e] = m
	}
	return match
}

// Search performs one search operation: a single compare cycle plus the
// pipelined priority encode. It returns the matched *entry* index (or -1)
// and advances the cycle counter by one (searches are fully pipelined; the
// PE latency adds packet latency, not occupancy).
func (t *FPGA) Search(k packet.Key) int {
	t.cycle++
	match := t.searchEntries(k)
	// Reduce through the same pipelined PE used in hardware.
	v := matchVector(match)
	t.pe.Step(&v, nil)
	for {
		if r := t.pe.Step(nil, nil); r.Valid {
			return r.Index
		}
	}
}

// Classify searches and maps the winning entry to its parent rule.
func (t *FPGA) Classify(h packet.Header) int {
	e := t.Search(h.Key())
	if e < 0 {
		return -1
	}
	return int(t.parent[e])
}

// MultiMatch returns all matching rules in priority order.
func (t *FPGA) MultiMatch(h packet.Header) []int {
	t.cycle++
	match := t.searchEntries(h.Key())
	var out []int
	for i, m := range match {
		if m {
			out = t.appendRule(out, i)
		}
	}
	return out
}

func matchVector(match []bool) bitvec.Vector {
	v := bitvec.New(maxInt(len(match), 1))
	for i, m := range match {
		if m {
			v.Set(i)
		}
	}
	return v
}
