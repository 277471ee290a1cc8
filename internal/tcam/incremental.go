package tcam

import (
	"fmt"
	"slices"

	"pktclass/internal/core"
	"pktclass/internal/ruleset"
)

var (
	_ core.Updater   = (*Behavioral)(nil)
	_ core.Footprint = (*Behavioral)(nil)
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
