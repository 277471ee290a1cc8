package tcam_test

import (
	"fmt"
	"testing"

	"pktclass/internal/core"
	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
	"pktclass/internal/tcam"
)

// rulesExpandingTo draws rules of the given profile until their ternary
// expansions add up to exactly ne entries: a rule is taken when it still
// fits, and single-entry rules (every profile generates plenty) close the
// remainder.
func rulesExpandingTo(t *testing.T, profile ruleset.Profile, ne int, seed int64) *ruleset.RuleSet {
	t.Helper()
	pool := ruleset.Generate(ruleset.GenConfig{N: 4 * (ne + 8), Profile: profile, Seed: seed})
	var rules []ruleset.Rule
	left := ne
	for _, r := range pool.Rules {
		if f := r.ExpansionFactor(); f <= left {
			rules = append(rules, r)
			left -= f
		}
	}
	rs := ruleset.New(rules)
	if got := rs.Expand().Len(); got != ne {
		t.Fatalf("%v pool expanded to %d entries, want %d", profile, got, ne)
	}
	return rs
}

// TestBehavioralEqualsLinearAcrossSizes checks the row-table TCAM against
// the linear reference on rule sets whose expansions hold no entry, a
// single entry, the entry counts around 64 and the serving benchmark's
// Ne = 928, for range-expanded (firewall) and 1:1 (prefix-only)
// expansions, through Classify, ClassifyBatch and MultiMatch. Whatever Ne
// is, the extended TCAM stores one row and 2·W + 64 bits per rule.
func TestBehavioralEqualsLinearAcrossSizes(t *testing.T) {
	for _, profile := range []ruleset.Profile{ruleset.FirewallProfile, ruleset.PrefixOnly} {
		for _, ne := range []int{0, 1, 63, 64, 65, 928} {
			t.Run(fmt.Sprintf("%v/Ne%d", profile, ne), func(t *testing.T) {
				rs := rulesExpandingTo(t, profile, ne, int64(91+ne))
				ex := rs.Expand()
				eng := tcam.NewBehavioral(ex)
				lin := core.NewLinear(rs)
				if eng.NumEntries() != rs.Len() || eng.NumRules() != rs.Len() {
					t.Fatalf("engine has %d rows / %d rules, want %d / %d", eng.NumEntries(), eng.NumRules(), rs.Len(), rs.Len())
				}
				if got, want := eng.MemoryBits(), (2*packet.W+64)*rs.Len(); got != want {
					t.Fatalf("MemoryBits = %d, want %d", got, want)
				}
				if profile == ruleset.FirewallProfile && ne >= 63 && rs.Len() == ne {
					t.Fatalf("firewall set of %d entries has no range-expanded rule", ne)
				}
				trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 600, MatchFraction: 0.7, Seed: int64(92 + ne)})
				out := make([]int, len(trace))
				eng.ClassifyBatch(trace, out)
				for i, h := range trace {
					want := lin.Classify(h)
					if got := eng.Classify(h); got != want {
						t.Fatalf("Classify = %d, linear = %d for %s", got, want, h)
					}
					if out[i] != want {
						t.Fatalf("ClassifyBatch[%d] = %d, linear = %d for %s", i, out[i], want, h)
					}
					if got, want := fmt.Sprint(eng.MultiMatch(h)), fmt.Sprint(lin.MultiMatch(h)); got != want {
						t.Fatalf("MultiMatch = %s, linear = %s for %s", got, want, h)
					}
				}
			})
		}
	}
}
