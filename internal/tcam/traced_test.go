package tcam

import (
	"testing"

	"pktclass/internal/obsv"
	"pktclass/internal/ruleset"
)

func TestBehavioralClassifyTraced(t *testing.T) {
	rs := ruleset.Generate(ruleset.GenConfig{
		N: 128, Profile: ruleset.FirewallProfile, Seed: 31, DefaultRule: true,
	})
	eng := NewBehavioral(rs.Expand())
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 300, MatchFraction: 0.8, Seed: 32})
	tc := obsv.NewTracer(1, 4)
	for _, h := range trace {
		_, tr := tc.SampleBatch(1)
		got := eng.ClassifyTraced(h, tr)
		tc.Finish(tr)
		if want := eng.Classify(h); got != want {
			t.Fatalf("traced %d != classify %d on %s", got, want, h)
		}
		hops := tr.HopSlice()
		if len(hops) != 2 || hops[0].Kind != obsv.HopTCAMSearch || hops[1].Kind != obsv.HopPriorityEncode {
			t.Fatalf("hops = %+v", hops)
		}
		// The search hop must count every asserted match line, not stop at
		// the winner: the rules themselves give the count and the first
		// line (one line per rule), the match vector must agree with them.
		lines, first := 0, -1
		mv := eng.MatchVector(h.Key())
		if len(mv) != rs.Len() {
			t.Fatalf("%d match lines, want one per rule (%d)", len(mv), rs.Len())
		}
		for i, r := range rs.Rules {
			m := r.Matches(h)
			if m != mv[i] {
				t.Fatalf("match line %d = %v, oracle says %v for %s", i, mv[i], m, h)
			}
			if m {
				lines++
				if first < 0 {
					first = i
				}
			}
		}
		if int(hops[0].Detail) != lines {
			t.Fatalf("search hop reports %d lines, oracle counts %d", hops[0].Detail, lines)
		}
		if int(hops[1].Detail) != first {
			t.Fatalf("encoder winner %d, oracle's first line %d", hops[1].Detail, first)
		}
	}
	if eng.ClassifyTraced(trace[0], nil) != eng.Classify(trace[0]) {
		t.Fatal("nil-trace path diverged")
	}
}
