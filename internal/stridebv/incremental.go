package stridebv

import (
	"fmt"
	"slices"

	"pktclass/internal/core"
	"pktclass/internal/ruleset"
)

var (
	_ core.Updater   = (*Engine)(nil)
	_ core.Footprint = (*Engine)(nil)
	_ core.Footprint = (*RangeEngine)(nil)
)

// ApplyDeltas applies a batch of single-entry rule replacements in O(delta)
// and returns the resulting engine without touching the receiver: the
// software form of the paper's per-stride addressable stage write
// (Section III-A: reprogramming an entry rewrites its slice of each stage
// memory), made safe for a live serving engine.
//
// The deltas are grouped by 64-entry group, and each touched group is
// rewritten once, with one dirty bit per touched entry and the last delta
// for an index as its pattern, so the last one wins when indices repeat.
// The receiver's entry→rule map is shared, and no entry table exists to
// copy: every other entry keeps the bits it has stored. The returned engine
// shares every stage block the deltas did not change with the receiver — a
// stage is copied, once and whole (2^k·ceil(Ne/64) words), only when a word
// the rewrite stores in it differs from the stored one; a stage whose
// stride condition is unchanged between the old and new entries is read
// and left shared. The receiver keeps serving concurrent readers unmodified
// throughout; the caller publishes the returned engine with an atomic
// pointer store, the software analogue of the hardware completing a write
// behind the search path.
//
// The child records which of its stages still alias the receiver (shared),
// so each stage is copied at most once however many of the batch's groups
// store in it. Once returned, the child is never written again: a later
// update is another ApplyDeltas on it, which leaves it as it was.
//
// rules[i] names the entry (== rule, see below) replaced by entries[i].
// ApplyDeltas requires the 1:1 rule↔entry mapping of a prefix-only
// expansion — a ruleset whose rules expand into multiple ternary entries has
// no stable per-rule bit column to rewrite, and such structural deltas must
// take the shadow-rebuild path.
func (e *Engine) ApplyDeltas(rules []int, entries []ruleset.Ternary) (core.Engine, error) {
	if len(rules) != len(entries) {
		return nil, fmt.Errorf("stridebv: %d delta indices but %d entries", len(rules), len(entries))
	}
	if e.ne != e.numRules {
		return nil, fmt.Errorf("stridebv: delta update needs a 1:1 rule/entry mapping (%d rules expand to %d entries)", e.numRules, e.ne)
	}
	for _, j := range rules {
		if j < 0 || j >= e.ne {
			return nil, fmt.Errorf("stridebv: delta entry %d out of range [0,%d)", j, e.ne)
		}
	}
	// byEntry orders the deltas by entry, stably: each group's deltas form
	// one run, and the last delta for an index comes last, so it wins.
	byEntry := make([]int32, len(rules))
	for i := range byEntry {
		byEntry[i] = int32(i)
	}
	slices.SortStableFunc(byEntry, func(a, b int32) int { return rules[a] - rules[b] })
	// The child starts as a copy of the receiver: same geometry, same walk
	// order until Reorder below, the same entry→rule map and the same
	// scratch pool — the recycled lookup workspaces are interchangeable, so
	// sharing keeps them warm across swaps.
	n := *e
	// Every stage starts shared: the child gets its own block headers (so
	// rewrite can repoint one stage without the parent seeing it) over the
	// parent's blocks, which stay read-only until rewrite detaches them, and
	// its own copy of the lead summaries, which the rewrites keep current.
	n.blk = append([][]uint64(nil), e.blk...)
	n.lead = append([]uint64(nil), e.lead...)
	n.ones = append([]int(nil), e.ones...)
	n.shared = make([]bool, n.stages)
	for s := range n.shared {
		n.shared[s] = true
	}
	var at [64]int32 // at[b]: the delta that writes entry b of the group
	for lo := 0; lo < len(byEntry); {
		wi := rules[byEntry[lo]] >> 6
		var dirty uint64
		for ; lo < len(byEntry) && rules[byEntry[lo]]>>6 == wi; lo++ {
			b := rules[byEntry[lo]] & 63
			dirty |= 1 << uint(b)
			at[b] = byEntry[lo]
		}
		n.rewrite(wi, dirty, func(j int) (value, mask []byte, valid bool) { return pattern(&entries[at[j&63]]) })
	}
	n.Reorder()
	return &n, nil
}
