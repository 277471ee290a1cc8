package stridebv_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pktclass/internal/genbv"
	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
	"pktclass/internal/stridebv"
)

// rangeFixture is a firewall-profile ruleset (real port ranges) with its
// range engine and a directed trace.
func rangeFixture(t testing.TB, n, k int) (*ruleset.RuleSet, *stridebv.RangeEngine, []packet.Header) {
	t.Helper()
	rs := ruleset.Generate(ruleset.GenConfig{N: n, Profile: ruleset.FirewallProfile, Seed: 47, DefaultRule: true})
	e, err := stridebv.NewRange(rs, k)
	if err != nil {
		t.Fatal(err)
	}
	return rs, e, ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 256, MatchFraction: 0.9, Seed: 48})
}

// genericFixture is a W = 256 generic-width engine with keys derived from
// its entries' values, and the byte-level TCAM over the same entries.
func genericFixture(t testing.TB, ne, k int) (*genbv.Engine, *genbv.TCAM, [][]byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(49))
	entries := randTernaries(rng, 256, ne)
	e, err := genbv.New(entries, 256, k)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([][]byte, 256)
	for i := range keys {
		keys[i] = append([]byte(nil), entries[rng.Intn(ne)].Value...)
		keys[i][rng.Intn(len(keys[i]))] = byte(rng.Intn(256))
	}
	return e, genbv.NewTCAM(entries, 256), keys
}

// The lookup fast path must not allocate in steady state — the whole point
// of the scratch-pool design — whichever stride-extraction path (k=4 divides
// 64, k=3 straddles words) or summary width (Ne=4200 needs two summary
// words per row) the engine takes, and whichever front end rides the stage
// memory: the range engine's batch path and the generic-width Classify share
// the 5-tuple engine's pooled scratch. The loop itself allocates nothing, so
// no GC can clear the pool mid-measurement.
func TestStrideBVBatchZeroAlloc(t *testing.T) {
	if stridebv.RaceEnabled {
		t.Skip("race detector drops sync.Pool puts; alloc gate runs in normal builds")
	}
	zero := func(t *testing.T, what string, f func()) {
		t.Helper()
		f() // warm the scratch pool
		if allocs := testing.AllocsPerRun(20, f); allocs != 0 {
			t.Fatalf("%s allocates %.2f per batch, want 0", what, allocs)
		}
	}
	for _, c := range []struct{ k, n int }{{3, 512}, {4, 512}, {3, 4200}, {4, 4200}} {
		t.Run(fmt.Sprintf("k%d/Ne%d", c.k, c.n), func(t *testing.T) {
			rs := ruleset.Generate(ruleset.GenConfig{N: c.n, Profile: ruleset.PrefixOnly, Seed: 47, DefaultRule: true})
			trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 256, MatchFraction: 0.9, Seed: 48})
			e, err := stridebv.New(rs.Expand(), c.k)
			if err != nil {
				t.Fatal(err)
			}
			out := make([]int, len(trace))
			zero(t, "ClassifyBatch", func() { e.ClassifyBatch(trace, out) })
		})
		t.Run(fmt.Sprintf("range/k%d/N%d", c.k, c.n), func(t *testing.T) {
			_, e, trace := rangeFixture(t, c.n, c.k)
			out := make([]int, len(trace))
			zero(t, "RangeEngine.ClassifyBatch", func() { e.ClassifyBatch(trace, out) })
		})
		t.Run(fmt.Sprintf("genbv/k%d/Ne%d", c.k, c.n), func(t *testing.T) {
			e, _, keys := genericFixture(t, c.n, c.k)
			zero(t, "genbv.Engine.Classify", func() {
				for _, key := range keys {
					if _, err := e.Classify(key); err != nil {
						t.Fatal(err)
					}
				}
			})
		})
	}
}

// The range and generic-width engines draw their lookup workspaces from the
// same kind of pool as the 5-tuple engine: concurrent lookups on one engine
// must each get their own and keep answering like the reference.
func TestRidersClassifyConcurrent(t *testing.T) {
	// hammer runs check(i) for every i < n from 8 goroutines at once, 20
	// times over, each starting at its own offset.
	hammer := func(t *testing.T, n int, check func(i int) bool) {
		var wg sync.WaitGroup
		var bad sync.Once
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(off int) {
				defer wg.Done()
				for i := 0; i < 20*n; i++ {
					if j := (i + off) % n; !check(j) {
						bad.Do(func() { t.Errorf("concurrent lookup %d diverged from the reference", j) })
						return
					}
				}
			}(g * 13)
		}
		wg.Wait()
	}
	t.Run("range", func(t *testing.T) {
		rs, e, trace := rangeFixture(t, 64, 4)
		want := make([]int, len(trace))
		for i, h := range trace {
			want[i] = rs.FirstMatch(h)
		}
		hammer(t, len(trace), func(i int) bool {
			var out [4]int
			batch := trace[i:min(i+len(out), len(trace))]
			e.ClassifyBatch(batch, out[:len(batch)])
			return out[0] == want[i] && e.Classify(trace[i]) == want[i]
		})
	})
	t.Run("genbv", func(t *testing.T) {
		e, ref, keys := genericFixture(t, 64, 4)
		want := make([]int, len(keys))
		for i, key := range keys {
			want[i] = ref.Classify(key)
		}
		hammer(t, len(keys), func(i int) bool {
			got, err := e.Classify(keys[i])
			return err == nil && got == want[i]
		})
	})
}
