package stridebv

import (
	"fmt"

	"pktclass/internal/ruleset"
)

// ApplyDeltas applies a batch of single-entry rule replacements in O(delta)
// and returns the resulting engine without touching the receiver: the
// software form of the paper's per-stride addressable stage write
// (Section III-A: reprogramming an entry rewrites its slice of each stage
// memory), made safe for a live serving engine.
//
// Every delta is written into the child's entry table first, so the last
// one wins when indices repeat; then each touched 64-entry group is
// rewritten once, with one dirty bit per touched entry. The returned engine
// shares every stage block the deltas did not change with the receiver — a
// stage is copied, once and whole (2^k·ceil(Ne/64) words), only when a word
// the rewrite stores in it differs from the stored one; a stage whose
// stride condition is unchanged between the old and new entries is read
// and left shared. The receiver keeps serving concurrent readers unmodified
// throughout; the caller publishes the returned engine with an atomic
// pointer store, the software analogue of the hardware completing a write
// behind the search path.
//
// The child engine records which stages still alias the receiver (shared),
// so later in-place writes on it — UpdateEntry, InvalidateEntry, another
// ApplyDeltas — un-alias before mutating instead of punching through into
// the receiver's storage.
//
// rules[i] names the entry (== rule, see below) replaced by entries[i].
// ApplyDeltas requires the 1:1 rule↔entry mapping of a prefix-only
// expansion — a ruleset whose rules expand into multiple ternary entries has
// no stable per-rule bit column to rewrite, and such structural deltas must
// take the shadow-rebuild path.
func (e *Engine) ApplyDeltas(rules []int, entries []ruleset.Ternary) (*Engine, error) {
	if len(rules) != len(entries) {
		return nil, fmt.Errorf("stridebv: %d delta indices but %d entries", len(rules), len(entries))
	}
	if e.ne != e.ex.NumRules {
		return nil, fmt.Errorf("stridebv: delta update needs a 1:1 rule/entry mapping (%d rules expand to %d entries)", e.ex.NumRules, e.ne)
	}
	table := append([]ruleset.Ternary(nil), e.ex.Entries...)
	dirty := make([]uint64, e.words)
	for i, j := range rules {
		if j < 0 || j >= e.ne {
			return nil, fmt.Errorf("stridebv: delta entry %d out of range [0,%d)", j, e.ne)
		}
		table[j] = entries[i]
		dirty[j>>6] |= 1 << uint(j&63)
	}
	// The child starts as a copy of the receiver: same geometry, same walk
	// order until Reorder below, and the same scratch pool — the recycled
	// lookup workspaces are interchangeable, so sharing keeps them warm
	// across swaps.
	n := *e
	n.ex = &ruleset.Expanded{Entries: table, Parent: e.ex.Parent, NumRules: e.ex.NumRules}
	n.ownsEntries = true
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
	for wi, d := range dirty {
		if d != 0 {
			n.rewrite(wi, d, n.pattern)
		}
	}
	n.Reorder()
	return &n, nil
}
