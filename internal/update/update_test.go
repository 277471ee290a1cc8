package update

import (
	"testing"

	"pktclass/internal/ruleset"
	"pktclass/internal/stridebv"
	"pktclass/internal/tcam"
)

func prefixOnlySet(t testing.TB, n int, seed int64) *ruleset.RuleSet {
	t.Helper()
	return ruleset.Generate(ruleset.GenConfig{N: n, Profile: ruleset.PrefixOnly, Seed: seed, DefaultRule: true})
}

func TestGenerateOpsValidation(t *testing.T) {
	// A ruleset with arbitrary ranges is rejected.
	bad := ruleset.New([]ruleset.Rule{{
		SIP: ruleset.Prefix{Bits: 32}, DIP: ruleset.Prefix{Bits: 32},
		SP: ruleset.PortRange{Lo: 1, Hi: 6}, DP: ruleset.FullPortRange,
		Proto: ruleset.AnyProtocol,
	}})
	if _, err := GenerateOps(bad, 10, 1); err == nil {
		t.Fatal("accepted range ruleset")
	}
	rs := prefixOnlySet(t, 32, 1)
	ops, err := GenerateOps(rs, 50, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 50 {
		t.Fatalf("%d ops", len(ops))
	}
	for _, op := range ops {
		if op.Index < 0 || op.Index >= rs.Len() {
			t.Fatalf("op index %d out of range", op.Index)
		}
		if op.Rule.ExpansionFactor() != 1 {
			t.Fatal("replacement rule not prefix-only")
		}
	}
}

func TestStrideBVUpdateStream(t *testing.T) {
	rs := prefixOnlySet(t, 64, 3)
	eng, err := stridebv.New(rs.Expand(), 4)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := GenerateOps(rs, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	updated, cost, err := ApplyToStrideBV(eng, ops)
	if err != nil {
		t.Fatal(err)
	}
	if cost.Ops != 100 || cost.LatencyCycles != eng.Stages() || cost.OccupancyCycles != 100 {
		t.Fatalf("cost = %+v", cost)
	}
	next, err := ApplyToRuleSet(rs, ops)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAfterUpdates(next, updated.Classify, 5); err != nil {
		t.Fatal(err)
	}
	// The updated engine must equal a rebuild from the updated ruleset,
	// and the receiver keep answering for the old one.
	fresh, err := stridebv.New(next.Expand(), 4)
	if err != nil {
		t.Fatal(err)
	}
	trace := ruleset.GenerateTrace(next, ruleset.TraceConfig{Count: 300, MatchFraction: 0.7, Seed: 6})
	for _, h := range trace {
		if updated.Classify(h) != fresh.Classify(h) {
			t.Fatalf("updated engine diverges from rebuild on %s", h)
		}
		if eng.Classify(h) != rs.FirstMatch(h) {
			t.Fatalf("receiver changed on %s", h)
		}
	}
}

func TestTCAMUpdateStream(t *testing.T) {
	rs := prefixOnlySet(t, 32, 7)
	fp := tcam.NewFPGA(rs.Expand())
	ops, err := GenerateOps(rs, 40, 8)
	if err != nil {
		t.Fatal(err)
	}
	start := fp.Cycle()
	cost, err := ApplyToTCAM(fp, ops)
	if err != nil {
		t.Fatal(err)
	}
	if cost.LatencyCycles != tcam.WriteCycles {
		t.Fatalf("latency %d", cost.LatencyCycles)
	}
	if cost.OccupancyCycles != int64(40*tcam.WriteCycles) {
		t.Fatalf("occupancy %d", cost.OccupancyCycles)
	}
	if fp.Cycle()-start < cost.OccupancyCycles {
		t.Fatalf("cycle counter did not advance through writes")
	}
	next, err := ApplyToRuleSet(rs, ops)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAfterUpdates(next, fp.Classify, 9); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateRateComparison(t *testing.T) {
	// StrideBV sustains ~16x the update rate of the SRL TCAM at equal
	// clock (1 slot vs 16 port cycles per update).
	rs := prefixOnlySet(t, 64, 10)
	eng, err := stridebv.New(rs.Expand(), 4)
	if err != nil {
		t.Fatal(err)
	}
	fp := tcam.NewFPGA(rs.Expand())

	ops, err := GenerateOps(rs, 64, 11)
	if err != nil {
		t.Fatal(err)
	}
	_, cs, err := ApplyToStrideBV(eng, ops)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := ApplyToTCAM(fp, ops)
	if err != nil {
		t.Fatal(err)
	}
	const clock = 200.0
	rateS := cs.UpdatesPerSecond(clock)
	rateT := ct.UpdatesPerSecond(clock)
	if ratio := rateS / rateT; ratio < 15.9 || ratio > 16.1 {
		t.Fatalf("update rate ratio %.2f, want 16 (%.0f vs %.0f)", ratio, rateS, rateT)
	}
	if (Cost{}).UpdatesPerSecond(clock) != 0 {
		t.Fatal("zero-op cost should report 0 rate")
	}
}

func TestApplyRejectsBadOps(t *testing.T) {
	rs := prefixOnlySet(t, 8, 12)
	eng, err := stridebv.New(rs.Expand(), 4)
	if err != nil {
		t.Fatal(err)
	}
	bad := []Op{{Index: 99, Rule: rs.Rules[0]}}
	if _, _, err := ApplyToStrideBV(eng, bad); err == nil {
		t.Fatal("accepted out-of-range index")
	}
	ranged := []Op{{Index: 0, Rule: ruleset.Rule{
		SIP: ruleset.Prefix{Bits: 32}, DIP: ruleset.Prefix{Bits: 32},
		SP: ruleset.PortRange{Lo: 1, Hi: 6}, DP: ruleset.FullPortRange,
		Proto: ruleset.AnyProtocol,
	}}}
	if _, _, err := ApplyToStrideBV(eng, ranged); err == nil {
		t.Fatal("accepted expanding replacement")
	}
	fp := tcam.NewFPGA(rs.Expand())
	if _, err := ApplyToTCAM(fp, bad); err == nil {
		t.Fatal("TCAM accepted out-of-range index")
	}
	if _, err := ApplyToTCAM(fp, ranged); err == nil {
		t.Fatal("TCAM accepted expanding replacement")
	}
}

func TestApplyToRuleSetDoesNotMutateInput(t *testing.T) {
	rs := prefixOnlySet(t, 32, 30)
	orig := rs.Clone()
	ops, err := GenerateOps(rs, 10, 31)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ApplyToRuleSet(rs, ops)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rs.Rules {
		if rs.Rules[i] != orig.Rules[i] {
			t.Fatalf("input ruleset mutated at rule %d", i)
		}
	}
	// The clone reflects every op, last-write-wins on duplicate indices.
	want := map[int]ruleset.Rule{}
	for _, op := range ops {
		want[op.Index] = op.Rule
	}
	for idx, r := range want {
		if out.Rules[idx] != r {
			t.Fatalf("op not applied at index %d", idx)
		}
	}
	if out.Len() != rs.Len() {
		t.Fatalf("length changed: %d -> %d", rs.Len(), out.Len())
	}
}

func TestApplyToRuleSetRejectsBadIndex(t *testing.T) {
	rs := prefixOnlySet(t, 8, 32)
	if _, err := ApplyToRuleSet(rs, []Op{{Index: 8, Rule: rs.Rules[0]}}); err == nil {
		t.Fatal("accepted out-of-range index")
	}
	if _, err := ApplyToRuleSet(rs, []Op{{Index: -1, Rule: rs.Rules[0]}}); err == nil {
		t.Fatal("accepted negative index")
	}
}
