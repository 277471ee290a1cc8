package stridebv_test

import (
	"fmt"
	"testing"

	"pktclass/internal/bitvec"
	"pktclass/internal/core"
	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
	"pktclass/internal/stridebv"
)

// layoutFixture is a prefix-only ruleset of exactly ne entries (one per
// rule) with no default rule, so uniform headers mostly match nothing; wild
// plants an all-wildcard entry mid-table, whose bit is set in every row of
// every stage. The headers mix directed and uniform draws.
func layoutFixture(t testing.TB, ne int, wild bool) (*ruleset.RuleSet, *ruleset.Expanded, []packet.Header) {
	t.Helper()
	rules := ruleset.Generate(ruleset.GenConfig{N: ne, Profile: ruleset.PrefixOnly, Seed: int64(ne)}).Rules
	if wild {
		rules[ne/2] = ruleset.NewWildcardRule(ruleset.Action{Kind: ruleset.Drop})
	}
	rs := ruleset.New(rules)
	ex := rs.Expand()
	if ex.Len() != ne {
		t.Fatalf("fixture expands to %d entries, want %d", ex.Len(), ne)
	}
	hdrs := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 40, MatchFraction: 0.6, Seed: int64(ne) + 1})
	return rs, ex, hdrs
}

// TestLayoutDifferential checks the block layout and its one walker against
// the references on every stride and on entry counts either side of each
// layout boundary: one word, one word ± 1 bit, one summary word (4096
// entries), one summary word + 1 entry, and a third summary word.
// Classify/ClassifyBatch answer like core.NewLinear; MatchVector and
// MultiMatch agree with per-entry Ternary.MatchesKey.
func TestLayoutDifferential(t *testing.T) {
	for _, ne := range []int{1, 63, 64, 65, 4096, 4097, 8203} {
		for _, wild := range []bool{false, true} {
			rs, ex, hdrs := layoutFixture(t, ne, wild)
			linear := core.NewLinear(rs)
			want := make([]bitvec.Vector, len(hdrs))
			misses := 0
			for i, h := range hdrs {
				want[i] = bitvec.New(ne)
				for j, entry := range ex.Entries {
					want[i].SetTo(j, entry.MatchesKey(h.Key()))
				}
				if want[i].IsZero() {
					misses++
				}
			}
			if wild == (misses > 0) {
				t.Fatalf("ne=%d wild=%v: %d of %d headers match nothing", ne, wild, misses, len(hdrs))
			}
			for k := stridebv.MinStride; k <= stridebv.MaxStride; k++ {
				if stridebv.RaceEnabled && ne >= 4096 && k != 3 && k != 4 {
					continue // raced builds of the big tables take seconds each; the plain run has them all
				}
				name := fmt.Sprintf("ne=%d wild=%v k=%d", ne, wild, k)
				e, err := stridebv.New(ex, k)
				if err != nil {
					t.Fatal(err)
				}
				out := make([]int, len(hdrs))
				e.ClassifyBatch(hdrs, out)
				for i, h := range hdrs {
					ref := linear.Classify(h)
					if got := e.Classify(h); got != ref || out[i] != ref {
						t.Fatalf("%s: Classify %d, ClassifyBatch %d, linear %d for %s", name, got, out[i], ref, h)
					}
					if got := e.MatchVector(h.Key()); !got.Equal(want[i]) {
						t.Fatalf("%s: MatchVector %v, MatchesKey %v for %s", name, got.SetBits(), want[i].SetBits(), h)
					}
					// One entry per rule, so the matching rules are the matching entries.
					if got := e.MultiMatch(h); fmt.Sprint(got) != fmt.Sprint(want[i].SetBits()) {
						t.Fatalf("%s: MultiMatch %v, MatchesKey %v for %s", name, got, want[i].SetBits(), h)
					}
				}
			}
		}
	}
}
