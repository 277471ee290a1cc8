package ruleset

import (
	"fmt"

	"pktclass/internal/packet"
)

// ExtendedEntry is one rule lowered for an extended TCAM row (Spitznagel,
// Taylor and Turner, "Packet Classification Using Extended TCAMs", ICNP
// 2003): a ternary word with a range comparator beside each port field. A
// key matches when it matches Cover and both of its ports lie inside their
// bounds, so a port range costs one row instead of its prefix cross
// product.
type ExtendedEntry struct {
	// Cover holds the bits every entry of the rule's expansion cares about
	// and agrees on: the address and protocol fields, and for each port
	// field the smallest prefix covering its range.
	Cover Ternary
	// SP and DP are the rule's true port bounds.
	SP, DP PortRange
}

// LowerEntry lowers one ternary entry on its own: the entry is its own
// cover, and each port bound runs from the lowest to the highest port the
// field admits. For a prefix field (every entry Expand writes) that is
// exactly the field's match set; for any other mask it is a superset that
// Cover narrows again, so the lowering matches the keys the entry does.
func LowerEntry(t Ternary) ExtendedEntry {
	var x ExtendedEntry
	lowerEntry(&x, &t)
	return x
}

// lowerEntry is LowerEntry into x. Lower writes each rule's result in
// place: returning ExtendedEntry values copied every single-entry rule
// twice and made NewBehavioral about a fifth slower.
func lowerEntry(x *ExtendedEntry, t *Ternary) {
	_, vlo := t.Value.Words()
	_, mlo := t.Mask.Words()
	x.Cover, x.SP, x.DP = *t, maskedRange(vlo>>48, mlo>>48), maskedRange(vlo>>32, mlo>>32)
}

// maskedRange is the lowest and highest 16-bit value matching the value
// and mask held in the low 16 bits of v and m.
func maskedRange(v, m uint64) PortRange {
	return PortRange{Lo: uint16(v & m), Hi: uint16(v | ^m)}
}

// Lower folds each rule's run of entries into one ExtendedEntry: Cover is
// the bits all of the run's entries care about and agree on, and the port
// bounds are the minimum and maximum over the entries' port prefixes.
// Expand writes every run as the source × destination cross product of
// the rule's two port prefix covers, so the lowering is exact; Lower
// checks that each run is as long as that cross product of its bounds and
// panics, naming the rule, when one is not. Entry i of the result is rule
// i; a rule without entries lowers to a disabled one.
func (ex *Expanded) Lower() []ExtendedEntry {
	out := make([]ExtendedEntry, ex.NumRules)
	next := 0 // rules below next are lowered
	for i := 0; i < len(ex.Entries); {
		r := ex.Parent[i]
		j := i + 1
		for j < len(ex.Entries) && ex.Parent[j] == r {
			j++
		}
		if r < next || r >= len(out) {
			panic(fmt.Sprintf("ruleset: lowering rule %d: its entries are not one run in priority order", r))
		}
		for ; next < r; next++ {
			out[next].Cover.Invalid = true
		}
		lowerRun(&out[r], r, ex.Entries[i:j])
		next, i = r+1, j
	}
	for ; next < len(out); next++ {
		out[next].Cover.Invalid = true
	}
	return out
}

// lowerRun folds one rule's run of entries (see Lower), in the two-word
// form of Key.Words: the source port is bits 63..48 of the low word, the
// destination port bits 47..32.
func lowerRun(x *ExtendedEntry, rule int, run []Ternary) {
	if len(run) == 1 {
		lowerEntry(x, &run[0])
		return
	}
	vhi, vlo := run[0].Value.Words()
	mhi, mlo := ^uint64(0), ^uint64(0)
	sp, dp := PortRange{Lo: 0xFFFF}, PortRange{Lo: 0xFFFF}
	for k := range run {
		e := &run[k]
		if e.Invalid {
			panic(fmt.Sprintf("ruleset: lowering rule %d: a disabled entry in a run of %d", rule, len(run)))
		}
		ehi, elo := e.Value.Words()
		emhi, emlo := e.Mask.Words()
		mhi &= emhi &^ (ehi ^ vhi)
		mlo &= emlo &^ (elo ^ vlo)
		s, d := maskedRange(elo>>48, emlo>>48), maskedRange(elo>>32, emlo>>32)
		sp = PortRange{Lo: min(sp.Lo, s.Lo), Hi: max(sp.Hi, s.Hi)}
		dp = PortRange{Lo: min(dp.Lo, d.Lo), Hi: max(dp.Hi, d.Hi)}
	}
	if want := sp.cover().len() * dp.cover().len(); len(run) != want {
		panic(fmt.Sprintf("ruleset: lowering rule %d: %d entries, but its port bounds [%s] × [%s] expand to %d",
			rule, len(run), sp, dp, want))
	}
	x.Cover = Ternary{
		Value: packet.HeaderFromWords(vhi&mhi, vlo&mlo).Key(),
		Mask:  packet.HeaderFromWords(mhi, mlo).Key(),
	}
	x.SP, x.DP = sp, dp
}
