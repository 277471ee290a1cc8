package tcam

import "pktclass/internal/ruleset"

// row is one TCAM entry packed for a two-word ternary compare: value and
// mask words for tuple bits 0..63 (hi) and 64..103 (lo), left-aligned like
// packet.Header.Words, the value pre-ANDed with the mask. A disabled entry
// cares about lo's lowest bit — padding no key ever sets — and wants it 1,
// so it fails the compare like any mismatch and no loop tests a valid bit.
type row struct{ vhi, mhi, vlo, mlo uint64 }

func packRow(t ruleset.Ternary) row {
	if t.Invalid {
		return row{vlo: 1, mlo: 1}
	}
	vhi, vlo := t.Value.Words()
	mhi, mlo := t.Mask.Words()
	return row{vhi: vhi & mhi, mhi: mhi, vlo: vlo & mlo, mlo: mlo}
}

// matches reports whether every cared-about bit of the key hi:lo equals the
// stored value. Branch-free, so an entry costs the same whatever it holds.
//
//pclass:hotpath
func (r *row) matches(hi, lo uint64) bool {
	return (hi^r.vhi)&r.mhi|(lo^r.vlo)&r.mlo == 0
}

// table is an expansion in searchable form for the partitioned TCAM, the
// only copy of the entries it keeps: the ruleset.Expanded it was packed
// from is not retained. Nothing writes it after construction.
type table struct {
	rows []row
	ruleMap
}

func newTable(ex *ruleset.Expanded) table {
	rows := make([]row, len(ex.Entries))
	for i := range rows {
		rows[i] = packRow(ex.Entries[i])
	}
	return table{rows: rows, ruleMap: newRuleMap(ex)}
}

// ruleMap maps entries to the rules they expand, as 4-byte rule indices.
// A delta rewrites entries, never the mapping, so a delta child shares its
// parent's map.
type ruleMap struct {
	parent   []int32 // parent[i] is the rule entry i expands
	numRules int
}

func newRuleMap(ex *ruleset.Expanded) ruleMap {
	parent := make([]int32, len(ex.Parent))
	for i, p := range ex.Parent {
		parent[i] = int32(p)
	}
	return ruleMap{parent: parent, numRules: ex.NumRules}
}

// appendRule appends entry's parent rule to out unless it is already last:
// callers visit entries in ascending order and one rule's entries are
// contiguous, so this collapses matching entries to rules.
func (m *ruleMap) appendRule(out []int, entry int) []int {
	if p := int(m.parent[entry]); len(out) == 0 || out[len(out)-1] != p {
		out = append(out, p)
	}
	return out
}

// bounds is an extended row's two range comparators (8 bytes): a key is
// admitted when its source port lies in [sp, sp+spSpan] and its
// destination port in [dp, dp+dpSpan]. Storing the span instead of the
// upper bound makes each comparator one wrapping subtract and one compare.
type bounds struct{ sp, spSpan, dp, dpSpan uint16 }

func packBounds(x *ruleset.ExtendedEntry) bounds {
	return bounds{sp: x.SP.Lo, spSpan: x.SP.Hi - x.SP.Lo, dp: x.DP.Lo, dpSpan: x.DP.Hi - x.DP.Lo}
}

// admits reports whether the ports of the key word lo (packet.Header.Words'
// layout: source port in bits 63..48, destination port in 47..32) lie
// inside the bounds.
//
//pclass:hotpath
func (b *bounds) admits(lo uint64) bool {
	return uint16(lo>>48)-b.sp <= b.spSpan && uint16(lo>>32)-b.dp <= b.dpSpan
}
