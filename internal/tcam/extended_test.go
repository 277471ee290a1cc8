package tcam

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pktclass/internal/obsv"
	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
)

// coverEdgeRuleSet pairs port ranges at the edges of the cover lowering —
// one straddling 2^15 (its cover is all 65 536 ports), single ports, the
// full range and [1, 2^j−1] for every j — under address prefixes of at
// most two bits, so a header lies inside many rules' covers and the
// bounds decide which of them match.
func coverEdgeRuleSet(seed int64) *ruleset.RuleSet {
	rng := rand.New(rand.NewSource(seed))
	ranges := []ruleset.PortRange{
		{Lo: 32767, Hi: 32768}, {Lo: 32000, Hi: 33000}, {Lo: 1, Hi: 65534},
		ruleset.ExactPort(0), ruleset.ExactPort(80), ruleset.ExactPort(32768), ruleset.ExactPort(65535),
		ruleset.FullPortRange,
	}
	for j := 1; j <= 16; j++ {
		ranges = append(ranges, ruleset.PortRange{Lo: 1, Hi: uint16(1<<j - 1)})
	}
	prefix := func() ruleset.Prefix {
		p, err := ruleset.NewPrefix(rng.Uint32(), 32, rng.Intn(3))
		if err != nil {
			panic(err)
		}
		return p
	}
	var rules []ruleset.Rule
	for i, sp := range ranges {
		for _, dp := range []ruleset.PortRange{ranges[(7*i+3)%len(ranges)], ruleset.FullPortRange, sp} {
			rules = append(rules, ruleset.Rule{SIP: prefix(), DIP: prefix(), SP: sp, DP: dp, Proto: ruleset.AnyProtocol})
		}
	}
	return ruleset.New(rules)
}

// edgeHeaders draws headers inside rules and then moves their ports onto
// the rules' bounds, one port either side of them, and both sides of 2^15.
func edgeHeaders(rs *ruleset.RuleSet, count int, seed int64) []packet.Header {
	rng := rand.New(rand.NewSource(seed))
	edges := func(r ruleset.PortRange) []uint16 {
		return []uint16{r.Lo - 1, r.Lo, r.Lo + 1, r.Hi - 1, r.Hi, r.Hi + 1, 32767, 32768}
	}
	out := make([]packet.Header, count)
	for i := range out {
		r := rs.Rules[rng.Intn(rs.Len())]
		h := ruleset.HeaderInRule(r, rng)
		if sp := edges(r.SP); rng.Intn(4) > 0 {
			h.SP = sp[rng.Intn(len(sp))]
		}
		if dp := edges(r.DP); rng.Intn(4) > 0 {
			h.DP = dp[rng.Intn(len(dp))]
		}
		out[i] = h
	}
	return out
}

// checkEqualsRules checks every search surface of eng against the rules of
// rs on hdrs: Classify, ClassifyBatch and ClassifyTraced's answer and
// encoder hop against FirstMatch, MultiMatch and the search hop's line
// count against AllMatches, and MatchVector line by line against each
// rule's own Matches.
func checkEqualsRules(t *testing.T, name string, eng *Behavioral, rs *ruleset.RuleSet, hdrs []packet.Header) {
	t.Helper()
	if eng.NumRules() != rs.Len() {
		t.Fatalf("%s: %d rows for %d rules", name, eng.NumRules(), rs.Len())
	}
	batch := make([]int, len(hdrs))
	eng.ClassifyBatch(hdrs, batch)
	tc := obsv.NewTracer(1, 4)
	for i, h := range hdrs {
		want, wantAll := rs.FirstMatch(h), rs.AllMatches(h)
		if got := eng.Classify(h); got != want {
			t.Fatalf("%s: Classify = %d, FirstMatch = %d for %s", name, got, want, h)
		}
		if batch[i] != want {
			t.Fatalf("%s: ClassifyBatch[%d] = %d, FirstMatch = %d for %s", name, i, batch[i], want, h)
		}
		if got := eng.MultiMatch(h); !slices.Equal(got, wantAll) {
			t.Fatalf("%s: MultiMatch = %v, AllMatches = %v for %s", name, got, wantAll, h)
		}
		_, tr := tc.SampleBatch(1)
		got := eng.ClassifyTraced(h, tr)
		hops := tr.HopSlice()
		tc.Finish(tr)
		if got != want || len(hops) != 2 || int(hops[0].Detail) != len(wantAll) || int(hops[1].Detail) != want {
			t.Fatalf("%s: ClassifyTraced = %d with hops %+v, want %d with %d lines for %s", name, got, hops, want, len(wantAll), h)
		}
		mv := eng.MatchVector(h.Key())
		if len(mv) != rs.Len() {
			t.Fatalf("%s: %d match lines for %d rules", name, len(mv), rs.Len())
		}
		for j, r := range rs.Rules {
			if mv[j] != r.Matches(h) {
				t.Fatalf("%s: match line %d = %v, rule matches = %v for %s", name, j, mv[j], r.Matches(h), h)
			}
		}
	}
}

// TestBehavioralEqualsRules checks the extended TCAM against the rules on
// every generator profile, the three ClassBench seeds and the cover edge
// set, over directed traffic and headers on the rules' port bounds.
func TestBehavioralEqualsRules(t *testing.T) {
	sets := map[string]*ruleset.RuleSet{"cover edges": coverEdgeRuleSet(1)}
	for p := ruleset.FirewallProfile; p <= ruleset.PrefixOnly; p++ {
		sets[p.String()] = ruleset.Generate(ruleset.GenConfig{N: 200, Profile: p, Seed: 21, DefaultRule: p != ruleset.PrefixOnly})
	}
	for name, seed := range map[string]*ruleset.Seed{"acl": ruleset.ACLSeed(), "fw": ruleset.FWSeed(), "ipc": ruleset.IPCSeed()} {
		rs, err := ruleset.GenerateFromSeed(seed, 200, 22)
		if err != nil {
			t.Fatal(err)
		}
		sets[name] = rs
	}
	for name, rs := range sets {
		hdrs := append(ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 300, MatchFraction: 0.8, Seed: 23}), edgeHeaders(rs, 300, 24)...)
		checkEqualsRules(t, name, NewBehavioral(rs.Expand()), rs, hdrs)
	}
}

// TestBehavioralApplyDeltasFirewall replaces rules of range-expanded sets,
// many of them rules that expanded to several entries, with rules whose
// port ranges are single prefixes (one entry each, as update.Deltas
// lowers them), and checks the child against the post-delta rules and the
// receiver against the pre-delta ones.
func TestBehavioralApplyDeltasFirewall(t *testing.T) {
	donorRanges := []ruleset.PortRange{ruleset.ExactPort(0), ruleset.ExactPort(443), ruleset.ExactPort(65535),
		ruleset.FullPortRange, {Lo: 1024, Hi: 2047}, {Lo: 32768, Hi: 65535}, {Lo: 0, Hi: 32767}}
	for _, c := range []struct {
		name string
		rs   *ruleset.RuleSet
	}{
		{"firewall", ruleset.Generate(ruleset.GenConfig{N: 128, Profile: ruleset.FirewallProfile, Seed: 25, DefaultRule: true})},
		{"cover edges", coverEdgeRuleSet(26)},
	} {
		rng := rand.New(rand.NewSource(27))
		donor := ruleset.Generate(ruleset.GenConfig{N: 24, Profile: ruleset.PrefixOnly, Seed: 28})
		next := c.rs.Clone()
		var rules []int
		var entries []ruleset.Ternary
		for i, r := range donor.Rules {
			r.SP, r.DP = donorRanges[rng.Intn(len(donorRanges))], donorRanges[rng.Intn(len(donorRanges))]
			if i%3 == 0 {
				// Keep the replaced rule's addresses, so headers aimed at it
				// land in the new rule's cover too.
				old := next.Rules[rng.Intn(next.Len())]
				r.SIP, r.DIP = old.SIP, old.DIP
			}
			te := r.TernaryEntries()
			if len(te) != 1 {
				t.Fatalf("donor rule %s expands to %d entries", r, len(te))
			}
			j := rng.Intn(next.Len())
			rules, entries = append(rules, j), append(entries, te[0])
			//pclass:allow-mutate writing the test's private clone
			next.Rules[j] = r
		}
		multi := 0
		for _, j := range rules {
			if c.rs.Rules[j].ExpansionFactor() > 1 {
				multi++
			}
		}
		if multi == 0 {
			t.Fatalf("%s: no delta replaces a range-expanded rule", c.name)
		}
		eng := NewBehavioral(c.rs.Expand())
		out, err := eng.ApplyDeltas(rules, entries)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		hdrs := append(ruleset.GenerateTrace(next, ruleset.TraceConfig{Count: 300, MatchFraction: 0.8, Seed: 29}), edgeHeaders(next, 200, 30)...)
		hdrs = append(hdrs, edgeHeaders(c.rs, 200, 31)...)
		checkEqualsRules(t, fmt.Sprintf("%s after %d deltas (%d on range-expanded rules)", c.name, len(rules), multi), out.(*Behavioral), next, hdrs)
		checkEqualsRules(t, c.name+" receiver", eng, c.rs, hdrs)
	}
}
