package tcam

import (
	"math/rand"
	"testing"

	"pktclass/internal/ruleset"
)

// tcamDeltaFixture mirrors the serving layer's lowered delta batch: random
// row indices replaced by prefix-only donor entries, plus the post-delta
// ruleset for the linear reference.
func tcamDeltaFixture(t testing.TB, n, deltas int, seed int64) (*ruleset.RuleSet, *ruleset.Expanded, *ruleset.RuleSet, []int, []ruleset.Ternary) {
	t.Helper()
	rs, ex := genSet(t, n, ruleset.PrefixOnly, seed)
	donor := ruleset.Generate(ruleset.GenConfig{N: deltas, Profile: ruleset.PrefixOnly, Seed: seed + 1})
	rng := rand.New(rand.NewSource(seed + 2))
	next := rs.Clone()
	rules := make([]int, deltas)
	entries := make([]ruleset.Ternary, deltas)
	for i := 0; i < deltas; i++ {
		j := rng.Intn(rs.Len())
		rules[i] = j
		te := donor.Rules[i].TernaryEntries()
		if len(te) != 1 {
			t.Fatalf("donor rule %d expands to %d entries", i, len(te))
		}
		entries[i] = te[0]
		//pclass:allow-mutate writing the fixture's private clone
		next.Rules[j] = donor.Rules[i]
	}
	return rs, ex, next, rules, entries
}

func TestBehavioralApplyDeltasEqualsRebuild(t *testing.T) {
	rs, ex, next, rules, entries := tcamDeltaFixture(t, 64, 10, 31)
	eng := NewBehavioral(ex)
	updated, err := eng.ApplyDeltas(rules, entries)
	if err != nil {
		t.Fatal(err)
	}
	trace := ruleset.GenerateTrace(next, ruleset.TraceConfig{Count: 500, MatchFraction: 0.8, Seed: 32})
	for _, h := range trace {
		if got, want := updated.Classify(h), next.FirstMatch(h); got != want {
			t.Fatalf("delta TCAM %d != linear %d for %s", got, want, h)
		}
		// The receiver must still answer for the pre-delta ruleset.
		if got, want := eng.Classify(h), rs.FirstMatch(h); got != want {
			t.Fatalf("receiver changed: %d != %d for %s", got, want, h)
		}
	}
}

// TestTCAMApplyDeltasValidation pins what the extended behavioural TCAM
// refuses and the words it refuses it with (the serving layer logs these on
// its rollback path). It keeps one row per rule, so a range-expanded set
// takes the delta.
func TestTCAMApplyDeltasValidation(t *testing.T) {
	_, ex, _, rules, entries := tcamDeltaFixture(t, 32, 4, 37)
	rsFw := ruleset.Generate(ruleset.GenConfig{N: 48, Profile: ruleset.FirewallProfile, Seed: 38, DefaultRule: true})
	exFw := rsFw.Expand()
	if exFw.Len() == exFw.NumRules {
		t.Fatal("firewall profile produced no range expansion at this seed")
	}
	outOfRange := func(j int) []int {
		bad := append([]int(nil), rules...)
		bad[0] = j
		return bad
	}
	cases := []struct {
		name    string
		ex      *ruleset.Expanded
		rules   []int
		entries []ruleset.Ternary
		// want is the error; "" means the delta applies.
		want string
	}{
		{"length mismatch", ex, rules, entries[:3], "tcam: 4 delta indices but 3 entries"},
		{"row past the end", ex, outOfRange(ex.Len()), entries, "tcam: delta entry 32 out of range [0,32)"},
		{"negative row", ex, outOfRange(-1), entries, "tcam: delta entry -1 out of range [0,32)"},
		{"range-expanded", exFw, rules[:1], entries[:1], ""},
	}
	for _, c := range cases {
		out, err := NewBehavioral(c.ex).ApplyDeltas(c.rules, c.entries)
		switch {
		case c.want == "" && (err != nil || out == nil):
			t.Errorf("%s: error %v, want the delta applied", c.name, err)
		case c.want != "" && (err == nil || err.Error() != c.want):
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
	}
}

// BenchmarkTCAMFPGAWrite is CI's 0-allocs gate on the SRL16E shift-in
// write primitive.
func BenchmarkTCAMFPGAWrite(b *testing.B) {
	_, ex := genSet(b, 512, ruleset.PrefixOnly, 39)
	fpga := NewFPGA(ex)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycles, err := fpga.Write(i%ex.Len(), ex.Entries[(i+1)%ex.Len()])
		if err != nil {
			b.Fatal(err)
		}
		fpga.Advance(int64(cycles))
	}
}
