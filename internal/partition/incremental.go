package partition

import (
	"fmt"

	"pktclass/internal/core"
	"pktclass/internal/ruleset"
	"pktclass/internal/stridebv"
)

var (
	_ core.Updater   = (*Engine)(nil)
	_ core.Footprint = (*Engine)(nil)
)

// MemoryBits returns the stored bits of the parts' memory models, summed:
// each part is its own engine over its own entries. A part without a
// memory model adds 0.
func (e *Engine) MemoryBits() int {
	total := 0
	for i := range e.parts {
		total += core.MemoryBits(e.parts[i].eng)
	}
	return total
}

// ApplyDeltas routes a batch of single-entry rule replacements to the one
// partition each touched rule lives in and rebuilds nothing else: the
// returned engine shares every untouched sub-engine (and all steering
// tables) with the receiver, which keeps serving concurrent readers
// unmodified — the same publish-after-write contract as the sub-engines'
// own delta paths, which it reaches through core.Updater, so any sub-engine
// family with a delta path works. rules[i] names the global rule replaced
// by entries[i].
//
// A replacement that would change a rule's steering — its prefix head now
// selects a different bucket, or moves between bucket and residual — is a
// structural delta for the partitioning layer: the rule's entry would be
// searched for the wrong headers. Such deltas return an error and the
// caller falls back to the shadow-rebuild path. Replacements within the
// residual bands (and every replacement under BandSplit) are always
// steering-stable because band membership depends only on the rule index.
func (e *Engine) ApplyDeltas(rules []int, entries []ruleset.Ternary) (core.Engine, error) {
	if len(rules) != len(entries) {
		return nil, fmt.Errorf("partition: %d delta indices but %d entries", len(rules), len(entries))
	}
	perPart := make(map[int32]int)
	for i, g := range rules {
		if g < 0 || g >= len(e.loc) {
			return nil, fmt.Errorf("partition: delta rule %d out of range [0,%d)", g, len(e.loc))
		}
		pl := e.loc[g]
		if e.splitter == PrefixSplit {
			kind, bucket, valid := steerTernary(entries[i], e.prefixBits)
			if valid {
				p := &e.parts[pl.part]
				if kind != p.kind || (kind != steerResidual && int32(bucket) != p.bucket) {
					return nil, fmt.Errorf("partition: delta on rule %d moves it across partitions (a structural update)", g)
				}
			}
		}
		perPart[pl.part]++
	}

	// Group the deltas per touched partition, preserving order (later
	// deltas on the same rule must still win inside the sub-engine).
	localRules := make(map[int32][]int, len(perPart))
	localEntries := make(map[int32][]ruleset.Ternary, len(perPart))
	for pi, n := range perPart {
		localRules[pi] = make([]int, 0, n)
		localEntries[pi] = make([]ruleset.Ternary, 0, n)
	}
	for i, g := range rules {
		pl := e.loc[g]
		localRules[pl.part] = append(localRules[pl.part], int(pl.local))
		localEntries[pl.part] = append(localEntries[pl.part], entries[i])
	}

	n := &Engine{
		rs:         e.rs,
		splitter:   e.splitter,
		prefixBits: e.prefixBits,
		parts:      append([]part(nil), e.parts...),
		dipPart:    e.dipPart,
		sipPart:    e.sipPart,
		always:     e.always,
		loc:        e.loc,
		candWords:  e.candWords,
		// Same geometry, so the recycled batch workspaces stay valid;
		// sharing the pool keeps them warm across swaps.
		scratch: e.scratch,
		subName: e.subName,
	}
	for pi := range localRules {
		u, ok := e.parts[pi].eng.(core.Updater)
		if !ok {
			return nil, fmt.Errorf("partition: part %d engine %s has no delta path", pi, e.parts[pi].eng.Name())
		}
		sub, err := u.ApplyDeltas(localRules[pi], localEntries[pi])
		if err != nil {
			return nil, fmt.Errorf("partition: part %d delta: %w", pi, err)
		}
		// The child walks a StrideBV part only while the shared entry
		// table still covers it.
		np := &n.parts[pi]
		np.eng = sub
		if np.sbv, _ = sub.(*stridebv.Engine); np.sbv != nil && np.sbv.NumEntries() == len(np.entryGlobal) {
			n.candWords = max(n.candWords, np.sbv.SummaryWords())
		} else {
			np.sbv = nil
		}
	}
	return n, nil
}
