package tcam

import (
	"fmt"

	"pktclass/internal/core"
	"pktclass/internal/penc"
	"pktclass/internal/ruleset"
	"pktclass/internal/srl"
)

var (
	_ core.Updater   = (*Behavioral)(nil)
	_ core.Footprint = (*Behavioral)(nil)
	_ core.Updater   = (*FPGA)(nil)
	_ core.Footprint = (*FPGA)(nil)
)

// validateDeltas checks a delta batch against a TCAM of ne entries holding
// numRules rules: matching index and entry counts, in-range rows, and the
// 1:1 rule↔entry mapping the per-row write path needs (a rule spanning
// several entries has no single row to rewrite — that is a structural delta
// for the shadow-rebuild path).
func validateDeltas(ne, numRules int, rules []int, entries []ruleset.Ternary) error {
	if len(rules) != len(entries) {
		return fmt.Errorf("tcam: %d delta indices but %d entries", len(rules), len(entries))
	}
	if ne != numRules {
		return fmt.Errorf("tcam: delta update needs a 1:1 rule/entry mapping (%d rules expand to %d entries)", numRules, ne)
	}
	for _, j := range rules {
		if j < 0 || j >= ne {
			return fmt.Errorf("tcam: delta entry %d out of range [0,%d)", j, ne)
		}
	}
	return nil
}

// ApplyDeltas applies a batch of single-entry rule replacements and returns
// the resulting TCAM without touching the receiver, which keeps serving
// concurrent searches until the caller publishes the result (atomic pointer
// store). Only the row table is copied (32 B per entry) and only the
// touched rows are repacked; the parent map is shared. rules[i] names the
// row replaced by entries[i]; later deltas win when indices repeat.
// Requires the 1:1 rule↔entry mapping of a prefix-only expansion.
func (t *Behavioral) ApplyDeltas(rules []int, entries []ruleset.Ternary) (core.Engine, error) {
	if err := validateDeltas(len(t.rows), t.numRules, rules, entries); err != nil {
		return nil, err
	}
	rows := append([]row(nil), t.rows...)
	for i, j := range rules {
		rows[j] = packRow(entries[i])
	}
	return &Behavioral{table{rows: rows, ruleMap: t.ruleMap}}, nil
}

// ApplyDeltas applies a batch of single-entry rule replacements through the
// SRL16E write path and returns the resulting TCAM: each touched row is a
// freshly programmed cell array — every cell's 16-entry truth table shifted
// in over WriteCycles clock cycles, all 52 cells of the row in parallel,
// exactly the paper's Section IV-B write — while untouched rows keep
// sharing their cells with the receiver. The single write port serializes
// rows, so the returned TCAM's cycle counter has advanced by
// len(rules)×WriteCycles of port occupancy.
//
// The receiver is never modified: in hardware the mid-shift row is simply
// excluded from matching while it reprograms; in software the same hazard
// window is closed by publishing the updated TCAM only after every row has
// finished shifting. rules[i] names the row replaced by entries[i]; later
// deltas win when indices repeat. Requires the 1:1 rule↔entry mapping of a
// prefix-only expansion.
func (t *FPGA) ApplyDeltas(rules []int, entries []ruleset.Ternary) (core.Engine, error) {
	if err := validateDeltas(len(t.cells), t.numRules, rules, entries); err != nil {
		return nil, err
	}
	n := &FPGA{
		ruleMap: t.ruleMap,
		cells:   append([][]srl.Cell(nil), t.cells...),
		valid:   append([]bool(nil), t.valid...),
		shadow:  append([]ruleset.Ternary(nil), t.shadow...),
		pe:      penc.NewPipelined(maxInt(len(t.cells), 1)),
		cycle:   t.cycle,
		writing: -1,
	}
	for i, idx := range rules {
		row := make([]srl.Cell, CellsPerEntry)
		cycles := 0
		for c := 0; c < CellsPerEntry; c++ {
			// All of a row's cells shift in parallel: the row costs
			// WriteCycles regardless of width.
			cycles = row[c].Write(entryBits(entries[i].Value, c), entryBits(entries[i].Mask, c))
		}
		n.cells[idx] = row
		n.shadow[idx] = entries[i]
		n.valid[idx] = true
		n.cycle += int64(cycles)
	}
	n.busyUntil = n.cycle
	return n, nil
}
