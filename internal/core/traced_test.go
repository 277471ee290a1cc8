package core_test

// The traced classification path must be observationally identical to
// Classify for every engine — the trace is a narration, never a different
// code path for the decision — and the nil-trace fast path must stay
// allocation-free so sampling can run at any rate in production.

import (
	"testing"

	"pktclass/internal/cli"
	"pktclass/internal/core"
	"pktclass/internal/flowcache"
	"pktclass/internal/obsv"
	"pktclass/internal/ruleset"
)

func TestClassifyTracedMatchesClassify(t *testing.T) {
	rs := ruleset.Generate(ruleset.GenConfig{
		N: 128, Profile: ruleset.FirewallProfile, Seed: 5, DefaultRule: true,
	})
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 500, MatchFraction: 0.7, Seed: 6})
	for _, name := range []string{"stridebv", "fsbv", "rangebv", "tcam", "tcam-fpga", "linear", "hicuts"} {
		eng, err := cli.BuildEngine(rs, name, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tc := obsv.NewTracer(1, 4)
		for _, h := range trace {
			want := eng.Classify(h)
			if got := core.ClassifyTraced(eng, h, nil); got != want {
				t.Fatalf("%s: nil-trace path diverged: got %d want %d on %s", name, got, want, h)
			}
			_, tr := tc.SampleBatch(1)
			got := core.ClassifyTraced(eng, h, tr)
			tc.Finish(tr)
			if got != want {
				t.Fatalf("%s: traced path diverged: got %d want %d on %s", name, got, want, h)
			}
			if tr.NHops == 0 {
				t.Fatalf("%s: traced classification recorded no hops", name)
			}
			if tr.Engine == "" {
				t.Fatalf("%s: trace has no engine name", name)
			}
		}
	}
}

func TestCachedClassifyTracedHitAndMissHops(t *testing.T) {
	rs := ruleset.Generate(ruleset.GenConfig{
		N: 64, Profile: ruleset.PrefixOnly, Seed: 7, DefaultRule: true,
	})
	eng, err := cli.BuildEngine(rs, "stridebv", 4)
	if err != nil {
		t.Fatal(err)
	}
	cached := core.NewCached(eng, flowcache.New(flowcache.Config{Entries: 1 << 10}))
	h := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 1, MatchFraction: 1, Seed: 8})[0]
	tc := obsv.NewTracer(1, 4)

	// Cold: the first traced lookup must record a miss followed by the
	// engine's stride stages.
	_, tr := tc.SampleBatch(1)
	cold := cached.ClassifyTraced(h, tr)
	tc.Finish(tr)
	hops := tr.HopSlice()
	if hops[0].Kind != obsv.HopCacheMiss {
		t.Fatalf("cold first hop = %v", hops[0].Kind)
	}
	stages := 0
	for _, hop := range hops {
		if hop.Kind == obsv.HopStrideStage {
			stages++
		}
	}
	if stages == 0 {
		t.Fatal("cold trace shows no stride stages after the miss")
	}
	if tr.Engine != cached.Name() {
		t.Fatalf("trace engine = %q, want %q (outermost layer wins)", tr.Engine, cached.Name())
	}

	// Warm: the same flow must now hit, with the cached decision in the hop
	// and no engine hops behind it.
	_, tr = tc.SampleBatch(1)
	warm := cached.ClassifyTraced(h, tr)
	tc.Finish(tr)
	hops = tr.HopSlice()
	if warm != cold {
		t.Fatalf("warm result %d != cold %d", warm, cold)
	}
	if len(hops) != 1 || hops[0].Kind != obsv.HopCacheHit {
		t.Fatalf("warm hops = %+v", hops)
	}
	if int(hops[0].Detail) != cold {
		t.Fatalf("hit hop detail %d != result %d", hops[0].Detail, cold)
	}
}

func TestClassifyTracedNilTracerZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race; zero-alloc gate runs in normal builds")
	}
	rs := ruleset.Generate(ruleset.GenConfig{
		N: 128, Profile: ruleset.PrefixOnly, Seed: 9, DefaultRule: true,
	})
	eng, err := cli.BuildEngine(rs, "stridebv", 4)
	if err != nil {
		t.Fatal(err)
	}
	cached := core.NewCached(eng, flowcache.New(flowcache.Config{Entries: 1 << 10}))
	h := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 1, MatchFraction: 1, Seed: 10})[0]
	cached.Classify(h) // warm the scratch pool and the cache
	if n := testing.AllocsPerRun(1000, func() { core.ClassifyTraced(eng, h, nil) }); n != 0 {
		t.Fatalf("nil-trace ClassifyTraced on stridebv allocates %.1f allocs/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { cached.ClassifyTraced(h, nil) }); n != 0 {
		t.Fatalf("nil-trace cached ClassifyTraced allocates %.1f allocs/op", n)
	}
}

// BenchmarkClassifyTracedNilTracer is the CI allocation gate for the
// untraced sampling fast path: classify through ClassifyTraced with a nil
// trace must cost exactly one branch over Classify and 0 allocs/op.
func BenchmarkClassifyTracedNilTracer(b *testing.B) {
	rs := ruleset.Generate(ruleset.GenConfig{
		N: 256, Profile: ruleset.PrefixOnly, Seed: 11, DefaultRule: true,
	})
	eng, err := cli.BuildEngine(rs, "stridebv", 4)
	if err != nil {
		b.Fatal(err)
	}
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 1024, MatchFraction: 0.8, Seed: 12})
	eng.Classify(trace[0]) // warm the scratch pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ClassifyTraced(eng, trace[i%len(trace)], nil)
	}
}
