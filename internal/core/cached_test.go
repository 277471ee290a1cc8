package core_test

// Differential property tests for the cached engine wrapper: a cached
// engine must be observationally identical to its uncached self on any
// trace, and — the hard part — a cache hit must never return a decision
// from a retired engine build while rulesets hot-swap underneath
// concurrent readers. CI runs these under -race.

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"pktclass/internal/cli"
	"pktclass/internal/core"
	"pktclass/internal/flowcache"
	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
	"pktclass/internal/update"
)

// reuseTrace draws a trace with heavy 5-tuple reuse: a small directed flow
// population sampled with replacement, so the cache's steady state is
// hit-dominated and any cached-vs-uncached divergence is exercised on
// both the hit and miss paths.
func reuseTrace(rs *ruleset.RuleSet, flows, count int, seed int64) []packet.Header {
	pop := ruleset.GenerateTrace(rs, ruleset.TraceConfig{
		Count: flows, MatchFraction: 0.7, Seed: seed,
	})
	rng := rand.New(rand.NewSource(seed + 1))
	out := make([]packet.Header, count)
	for i := range out {
		out[i] = pop[rng.Intn(len(pop))]
	}
	return out
}

func TestCachedDifferentialAgainstUncached(t *testing.T) {
	rs := ruleset.Generate(ruleset.GenConfig{
		N: 256, Profile: ruleset.FirewallProfile, Seed: 1, DefaultRule: true,
	})
	trace := reuseTrace(rs, 400, 20000, 2)
	for _, name := range []string{"stridebv", "fsbv", "rangebv", "tcam", "linear"} {
		t.Run(name, func(t *testing.T) {
			eng, err := cli.BuildEngine(rs, name, 4)
			if err != nil {
				t.Fatal(err)
			}
			cached := core.NewCached(eng, flowcache.New(flowcache.Config{Entries: 1 << 12}))
			// Batch path, twice: cold (miss-dominated) and warm
			// (hit-dominated) both have to agree with the uncached engine.
			want := make([]int, len(trace))
			core.ClassifyBatchInto(eng, trace, want)
			for pass := 0; pass < 2; pass++ {
				got := make([]int, len(trace))
				cached.ClassifyBatch(trace, got)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("pass %d packet %d: cached %d, uncached %d", pass, i, got[i], want[i])
					}
				}
			}
			// Per-packet path on a fresh cache.
			cached = core.NewCached(eng, flowcache.New(flowcache.Config{Entries: 1 << 12}))
			for i, h := range trace[:4000] {
				if got := cached.Classify(h); got != want[i] {
					t.Fatalf("packet %d: cached Classify %d, uncached %d", i, got, want[i])
				}
			}
			if hr := cached.Cache().Stats().HitRate(); hr == 0 {
				t.Fatal("reuse trace produced no cache hits; test is not exercising the hit path")
			}
		})
	}
}

// version pairs one engine build with the linear reference over the same
// ruleset: whatever build a reader observes, every classification it gets
// must agree with that build's own reference — a stale hit from any other
// build shows up as a divergence.
type version struct {
	cached *core.Cached
	ref    *core.Linear
}

func TestCachedDifferentialUnderHotSwap(t *testing.T) {
	const (
		versions = 6
		readers  = 4
		rounds   = 60
		batch    = 128
	)
	base := ruleset.Generate(ruleset.GenConfig{
		N: 64, Profile: ruleset.PrefixOnly, Seed: 3, DefaultRule: true,
	})

	// Build a chain of rulesets, each a handful of rule replacements past
	// the previous, all sharing one flow cache. The shared header
	// population is drawn from every version, so the same 5-tuples are
	// classified under builds that genuinely disagree about them.
	cache := flowcache.New(flowcache.Config{Entries: 1 << 10})
	sets := make([]*ruleset.RuleSet, versions)
	sets[0] = base
	for v := 1; v < versions; v++ {
		ops, err := update.GenerateOps(sets[v-1], 16, int64(10+v))
		if err != nil {
			t.Fatal(err)
		}
		next, err := update.ApplyToRuleSet(sets[v-1], ops)
		if err != nil {
			t.Fatal(err)
		}
		sets[v] = next
	}
	var pop []packet.Header
	for v, rs := range sets {
		pop = append(pop, ruleset.GenerateTrace(rs, ruleset.TraceConfig{
			Count: 150, MatchFraction: 0.9, Seed: int64(20 + v),
		})...)
	}
	buildVersion := func(rs *ruleset.RuleSet) *version {
		eng, err := cli.BuildEngine(rs, "stridebv", 4)
		if err != nil {
			t.Fatal(err)
		}
		return &version{cached: core.NewCached(eng, cache), ref: core.NewLinear(rs)}
	}

	// The swap sequence must actually change decisions on the population,
	// or a stale hit would be indistinguishable from a fresh one.
	disagreements := 0
	first, last := core.NewLinear(sets[0]), core.NewLinear(sets[versions-1])
	for _, h := range pop {
		if first.Classify(h) != last.Classify(h) {
			disagreements++
		}
	}
	if disagreements == 0 {
		t.Fatal("update chain never changes a decision on the population; staleness would be invisible")
	}

	live := atomic.Pointer[version]{}
	live.Store(buildVersion(sets[0]))
	var stop atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, readers)

	// Updater: walk the version chain forward and back (the backward steps
	// are rollback-shaped — an older ruleset returning under a *new*
	// generation), re-wrapping a build per swap exactly like the serving
	// layer does.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for lap := 0; lap < 8; lap++ {
			for v := 0; v < versions; v++ {
				live.Store(buildVersion(sets[v]))
			}
			for v := versions - 2; v > 0; v-- {
				live.Store(buildVersion(sets[v]))
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			hdrs := make([]packet.Header, batch)
			out := make([]int, batch)
			for round := 0; ; round++ {
				if stop.Load() && round >= rounds {
					return
				}
				for i := range hdrs {
					hdrs[i] = pop[rng.Intn(len(pop))]
				}
				// Load once: this batch is pinned to one build, and every
				// result — hit or miss — must match that build's reference.
				v := live.Load()
				v.cached.ClassifyBatch(hdrs, out)
				for i, h := range hdrs {
					if want := v.ref.Classify(h); out[i] != want {
						errCh <- fmt.Errorf("gen %d: header %s: cached %d, reference %d — stale decision served",
							v.cached.Generation(), h, out[i], want)
						return
					}
				}
				// Interleave some per-packet lookups on the same build.
				for i := 0; i < 8; i++ {
					h := pop[rng.Intn(len(pop))]
					if got, want := v.cached.Classify(h), v.ref.Classify(h); got != want {
						errCh <- fmt.Errorf("gen %d: header %s: cached Classify %d, reference %d",
							v.cached.Generation(), h, got, want)
						return
					}
				}
			}
		}(int64(100 + r))
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if st := cache.Stats(); st.Hits == 0 || st.StaleDrops == 0 {
		t.Fatalf("swap churn exercised neither hits nor stale drops: %+v", st)
	}
}
