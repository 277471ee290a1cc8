package tcam

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pktclass/internal/core"
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

func TestFPGAApplyDeltasEqualsRebuild(t *testing.T) {
	_, ex, next, rules, entries := tcamDeltaFixture(t, 32, 6, 33)
	fpga := NewFPGA(ex)
	updated, err := fpga.ApplyDeltas(rules, entries)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewBehavioral(next.Expand())
	trace := ruleset.GenerateTrace(next, ruleset.TraceConfig{Count: 300, MatchFraction: 0.8, Seed: 34})
	for _, h := range trace {
		if got, want := updated.Classify(h), ref.Classify(h); got != want {
			t.Fatalf("delta FPGA %d != behavioral %d for %s", got, want, h)
		}
	}
}

// TestFPGAApplyDeltasSharesRuleMap: the FPGA model keeps no entry table
// beyond its cells and the Read shadow, so a delta child reuses its
// parent's entry→rule map as is and still answers both Classify and
// MultiMatch like the linear reference, while the parent keeps answering
// for the pre-delta ruleset.
func TestFPGAApplyDeltasSharesRuleMap(t *testing.T) {
	rs, ex, next, rules, entries := tcamDeltaFixture(t, 48, 8, 39)
	parent := NewFPGA(ex)
	out, err := parent.ApplyDeltas(rules, entries)
	if err != nil {
		t.Fatal(err)
	}
	child := out.(*FPGA)
	if &child.parent[0] != &parent.parent[0] || child.numRules != parent.numRules {
		t.Fatal("delta child copied the rule map, want it shared with the parent")
	}
	trace := ruleset.GenerateTrace(next, ruleset.TraceConfig{Count: 300, MatchFraction: 0.8, Seed: 40})
	for _, h := range trace {
		if got, want := child.Classify(h), next.FirstMatch(h); got != want {
			t.Fatalf("child Classify %d != linear %d for %s", got, want, h)
		}
		if got, want := child.MultiMatch(h), next.AllMatches(h); !slices.Equal(got, want) {
			t.Fatalf("child MultiMatch %v != linear %v for %s", got, want, h)
		}
		if got, want := parent.Classify(h), rs.FirstMatch(h); got != want {
			t.Fatalf("parent changed: %d != %d for %s", got, want, h)
		}
	}
}

// TestFPGAApplyDeltasCycleAccounting pins the SRL16E write-port model: each
// touched row shifts for WriteCycles on the single serialized port, so a
// k-row delta advances the derived TCAM's clock by exactly k×WriteCycles
// while the receiver's clock never moves.
func TestFPGAApplyDeltasCycleAccounting(t *testing.T) {
	_, ex, _, rules, entries := tcamDeltaFixture(t, 32, 5, 35)
	fpga := NewFPGA(ex)
	before := fpga.Cycle()
	out, err := fpga.ApplyDeltas(rules, entries)
	if err != nil {
		t.Fatal(err)
	}
	updated := out.(*FPGA)
	if fpga.Cycle() != before {
		t.Fatalf("receiver clock advanced: %d -> %d", before, fpga.Cycle())
	}
	want := before + int64(len(rules))*int64(WriteCycles)
	if updated.Cycle() != want {
		t.Fatalf("derived clock %d, want %d (%d rows x %d cycles)",
			updated.Cycle(), want, len(rules), WriteCycles)
	}
}

// TestTCAMApplyDeltasValidation pins what both TCAMs refuse and the words
// they refuse it with (the serving layer logs these on its rollback path).
// A range-expanded set is refused only by the FPGA model, whose rows are
// expanded entries; the extended behavioural TCAM keeps one row per rule
// and takes the delta.
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
		// want is each engine's error; "" means the delta applies.
		want map[string]string
	}{
		{"length mismatch", ex, rules, entries[:3], both("tcam: 4 delta indices but 3 entries")},
		{"row past the end", ex, outOfRange(ex.Len()), entries, both("tcam: delta entry 32 out of range [0,32)")},
		{"negative row", ex, outOfRange(-1), entries, both("tcam: delta entry -1 out of range [0,32)")},
		{"range-expanded", exFw, rules[:1], entries[:1], map[string]string{
			"behavioral": "",
			"fpga":       fmt.Sprintf("tcam: delta update needs a 1:1 rule/entry mapping (48 rules expand to %d entries)", exFw.Len()),
		}},
	}
	for _, c := range cases {
		outB, errB := NewBehavioral(c.ex).ApplyDeltas(c.rules, c.entries)
		outF, errF := NewFPGA(c.ex).ApplyDeltas(c.rules, c.entries)
		for engine, res := range map[string]struct {
			out core.Engine
			err error
		}{"behavioral": {outB, errB}, "fpga": {outF, errF}} {
			want := c.want[engine]
			switch {
			case want == "" && (res.err != nil || res.out == nil):
				t.Errorf("%s, %s: error %v, want the delta applied", c.name, engine, res.err)
			case want != "" && (res.err == nil || res.err.Error() != want):
				t.Errorf("%s, %s: error %v, want %q", c.name, engine, res.err, want)
			}
		}
	}
}

// both is the same expected error for both TCAMs.
func both(msg string) map[string]string { return map[string]string{"behavioral": msg, "fpga": msg} }

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
