package stridebv

import (
	"math/bits"
	"reflect"
	"testing"

	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
)

// wordsWalked counts the candidate words the walker visits for one packet
// before its first match: the candidates m.candidates leaves, taken in
// ascending order, each ANDed across every stage until one survives.
func wordsWalked(m *Memory, addrs []int, cand []uint64) int {
	m.candidates(addrs, cand)
	n := 0
	for i, c := range cand {
		for ; c != 0; c &= c - 1 {
			w := i<<6 + bits.TrailingZeros64(c)
			n++
			word := ^uint64(0)
			for s := 0; s < m.stages && word != 0; s++ {
				word &= m.blk[s][addrs[s]*m.words+w]
			}
			if word != 0 {
				return n
			}
		}
	}
	return n
}

// TestLeadSummaryWordsWalked bounds the candidate words a packet visits
// before its first match on the serving shapes (k = 4, 20 000 flow headers,
// 90 % directed into rules). The lead summaries, keyed by pairs of lead
// strides, leave about one candidate per match on a firewall set.
func TestLeadSummaryWordsWalked(t *testing.T) {
	for _, c := range []struct {
		name    string
		profile ruleset.Profile
		n       int
		bound   float64
	}{
		{"fw/N2048", ruleset.FirewallProfile, 2048, 2},
		{"prefix/N2048", ruleset.PrefixOnly, 2048, 10},
		{"fw/N16384", ruleset.FirewallProfile, 16384, 8},
	} {
		if raceEnabled && c.n > 2048 {
			continue
		}
		rs, ex := genSet(t, c.n, c.profile, 7)
		e, err := New(ex, 4)
		if err != nil {
			t.Fatal(err)
		}
		hdrs := ruleset.FlowHeaders(rs, 20000, 0.9, 8)
		addrs, cand := make([]int, e.stages), make([]uint64, e.sumWords)
		total := 0
		for _, h := range hdrs {
			h.StridesInto(e.k, addrs)
			total += wordsWalked(&e.Memory, addrs, cand)
		}
		per := float64(total) / float64(len(hdrs))
		t.Logf("%s (Ne = %d, %d words): %.2f candidate words walked per packet", c.name, e.ne, e.words, per)
		if per > c.bound {
			t.Errorf("%s: %.2f candidate words walked per packet, bound %g", c.name, per, c.bound)
		}
	}
}

// TestLeadSummaryInPlaceWrites: an in-place single-entry rewrite into a
// word the packet's lead summary rows exclude makes the new entry the
// packet's answer, and rewriting it with the never-match entry restores the
// old answer; after each, the lead summaries are exactly those of the
// stored words. rewrite keeps them current itself, with no Reorder after
// it, so this checks the per-word lead maintenance.
func TestLeadSummaryInPlaceWrites(t *testing.T) {
	rs, ex := genSet(t, 256, ruleset.PrefixOnly, 9)
	e, err := New(ex, 4)
	if err != nil {
		t.Fatal(err)
	}
	addrs, cand := make([]int, e.stages), make([]uint64, e.sumWords)
	var h packet.Header
	found := false
	for _, c := range ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 512, MatchFraction: 0.9, Seed: 10}) {
		c.StridesInto(e.k, addrs)
		e.candidates(addrs, cand)
		if cand[0]&1 == 0 {
			h, found = c, true
			break
		}
	}
	if !found {
		t.Fatal("no header whose lead summaries exclude word 0")
	}
	before := e.Classify(h)
	exact := ruleset.Ternary{Value: h.Key()}
	for i := range exact.Mask {
		exact.Mask[i] = 0xFF
	}
	rewriteEntry(e, 0, &exact)
	if got := e.Classify(h); got != ex.Parent[0] {
		t.Fatalf("after writing entry 0 to match the header exactly: rule %d, want %d", got, ex.Parent[0])
	}
	if !reflect.DeepEqual(e.lead, e.DeriveLead()) {
		t.Fatal("rewrite left the lead summaries stale")
	}
	inv := ruleset.InvalidTernary()
	rewriteEntry(e, 0, &inv)
	if got := e.Classify(h); got != before {
		t.Fatalf("after invalidating entry 0: rule %d, want %d", got, before)
	}
	if !reflect.DeepEqual(e.lead, e.DeriveLead()) {
		t.Fatal("the invalidating rewrite left the lead summaries stale")
	}
}
