package stridebv

import (
	"testing"

	"pktclass/internal/obsv"
	"pktclass/internal/ruleset"
)

func TestClassifyTracedStagePopcounts(t *testing.T) {
	rs := ruleset.Generate(ruleset.GenConfig{
		N: 128, Profile: ruleset.FirewallProfile, Seed: 21, DefaultRule: true,
	})
	for _, k := range []int{1, 4} {
		e, err := New(rs.Expand(), k)
		if err != nil {
			t.Fatal(err)
		}
		trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 200, MatchFraction: 0.8, Seed: 22})
		tc := obsv.NewTracer(1, 4)
		for _, h := range trace {
			_, tr := tc.SampleBatch(1)
			got := e.ClassifyTraced(h, tr)
			tc.Finish(tr)
			if want := e.Classify(h); got != want {
				t.Fatalf("k=%d: traced %d != classify %d on %s", k, got, want, h)
			}
			hops := tr.HopSlice()
			// One hop per pipeline stage, in order, plus the priority encoder.
			if len(hops) != e.Stages()+1 {
				t.Fatalf("k=%d: %d hops, want %d stages + encoder", k, len(hops), e.Stages())
			}
			prev := int64(e.NumEntries())
			for s := 0; s < e.Stages(); s++ {
				hop := hops[s]
				if hop.Kind != obsv.HopStrideStage || int(hop.Stage) != s {
					t.Fatalf("k=%d: hop %d = %+v", k, s, hop)
				}
				// ANDing can only shrink the surviving set.
				if hop.Detail > prev || hop.Detail < 0 {
					t.Fatalf("k=%d: stage %d popcount %d after %d", k, s, hop.Detail, prev)
				}
				prev = hop.Detail
			}
			enc := hops[len(hops)-1]
			if enc.Kind != obsv.HopPriorityEncode {
				t.Fatalf("k=%d: last hop = %+v", k, enc)
			}
			// The encoder's winner is consistent with the final popcount: a
			// surviving entry iff any bits survived.
			if (prev > 0) != (enc.Detail >= 0) {
				t.Fatalf("k=%d: final popcount %d but encoder winner %d", k, prev, enc.Detail)
			}
			if got < 0 && enc.Detail >= 0 || got >= 0 && enc.Detail < 0 {
				t.Fatalf("k=%d: result %d vs encoder %d", k, got, enc.Detail)
			}
		}
	}
}

func TestClassifyTracedNilTrace(t *testing.T) {
	rs := ruleset.Generate(ruleset.GenConfig{
		N: 64, Profile: ruleset.PrefixOnly, Seed: 23, DefaultRule: true,
	})
	e, err := New(rs.Expand(), 4)
	if err != nil {
		t.Fatal(err)
	}
	h := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 1, MatchFraction: 1, Seed: 24})[0]
	if e.ClassifyTraced(h, nil) != e.Classify(h) {
		t.Fatal("nil-trace path diverged")
	}
	if raceEnabled {
		return // the race detector drops sync.Pool puts; the alloc gate runs in normal builds
	}
	e.Classify(h) // warm the scratch pool
	if n := testing.AllocsPerRun(500, func() { e.ClassifyTraced(h, nil) }); n != 0 {
		t.Fatalf("nil-trace ClassifyTraced allocates %.1f allocs/op", n)
	}
}
