package tcam

import (
	"fmt"
	"slices"

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

// validateDeltas checks a delta batch against a TCAM of n rows: matching
// index and entry counts, and in-range rows.
func validateDeltas(n int, rules []int, entries []ruleset.Ternary) error {
	if len(rules) != len(entries) {
		return fmt.Errorf("tcam: %d delta indices but %d entries", len(rules), len(entries))
	}
	for _, j := range rules {
		if j < 0 || j >= n {
			return fmt.Errorf("tcam: delta entry %d out of range [0,%d)", j, n)
		}
	}
	return nil
}

// ApplyDeltas applies a batch of single-entry rule replacements and returns
// the resulting TCAM without touching the receiver, which keeps serving
// concurrent searches until the caller publishes the result (atomic pointer
// store). Only the row and bounds tables are copied (40 B per rule) and
// only the touched rows are rewritten, each from its entry's lowering
// (ruleset.LowerEntry). rules[i] names the rule replaced by entries[i];
// later deltas win when indices repeat. Row i is rule i whatever the
// ruleset's expansion, so this works on range-expanded (firewall) sets too.
func (t *Behavioral) ApplyDeltas(rules []int, entries []ruleset.Ternary) (core.Engine, error) {
	if err := validateDeltas(len(t.rows), rules, entries); err != nil {
		return nil, err
	}
	rows, bnds := slices.Clone(t.rows), slices.Clone(t.bounds)
	for i, j := range rules {
		x := ruleset.LowerEntry(entries[i])
		rows[j], bnds[j] = packRow(x.Cover), packBounds(&x)
	}
	return &Behavioral{rows: rows, bounds: bnds}, nil
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
	if len(t.cells) != t.numRules {
		// A rule spanning several entries has no single row to rewrite:
		// that is a structural delta for the shadow-rebuild path.
		return nil, fmt.Errorf("tcam: delta update needs a 1:1 rule/entry mapping (%d rules expand to %d entries)", t.numRules, len(t.cells))
	}
	if err := validateDeltas(len(t.cells), rules, entries); err != nil {
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
