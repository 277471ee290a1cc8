package pktclass

// Batched classification benchmarks: the software analogue of the paper's
// throughput claims. Each iteration classifies one batchBenchSize-packet
// batch through the engine's native ClassifyBatch path and reports ns/pkt
// beside the allocs/op column, the numbers `pclass bench` prints. The
// StrideBV batch path must stay at 0 allocs/op in steady state (CI gates
// on it); run with
//
//	go test -bench 'Batch$' -benchmem
//
// N sweeps the paper's ruleset sizes, k the strides it evaluates.

import (
	"fmt"
	"testing"

	"pktclass/internal/core"
)

const batchBenchSize = 1024

var batchBenchNs = []int{32, 128, 512, 2048}

func benchBatch(b *testing.B, eng Engine, trace []Header) {
	b.Helper()
	out := make([]int, len(trace))
	ClassifyBatch(eng, trace, out) // warm any scratch pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ClassifyBatch(eng, trace, out)
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(trace)), "ns/pkt")
	}
}

func batchBenchTrace(b *testing.B, rs *RuleSet) []Header {
	b.Helper()
	return GenerateTrace(rs, batchBenchSize, 0.9, 2)
}

// BenchmarkStrideBVBatch sweeps prefix-only sets, plus two firewall sets at
// k = 4: N = 2048, the serving benchmark's engine shape, and N = 16384, where
// the lead summaries' pairwise index thins the most.
func BenchmarkStrideBVBatch(b *testing.B) {
	run := func(name, profile string, n, k int) {
		b.Run(name, func(b *testing.B) {
			rs := GenerateRuleSet(n, profile, 1)
			eng, err := NewStrideBV(rs, k)
			if err != nil {
				b.Fatal(err)
			}
			benchBatch(b, eng, batchBenchTrace(b, rs))
		})
	}
	for _, k := range []int{3, 4} {
		for _, n := range batchBenchNs {
			run(fmt.Sprintf("k%d/N%d", k, n), "prefix-only", n, k)
		}
	}
	for _, n := range []int{2048, 16384} {
		run(fmt.Sprintf("fw/k4/N%d", n), "firewall", n, 4)
	}
}

func BenchmarkRangeBVBatch(b *testing.B) {
	for _, k := range []int{3, 4} {
		for _, n := range batchBenchNs {
			b.Run(fmt.Sprintf("k%d/N%d", k, n), func(b *testing.B) {
				// The range engine's point is native port ranges, so it gets
				// the range-heavy firewall profile rather than prefix-only.
				rs := GenerateRuleSet(n, "firewall", 1)
				eng, err := NewRangeStrideBV(rs, k)
				if err != nil {
					b.Fatal(err)
				}
				benchBatch(b, eng, batchBenchTrace(b, rs))
			})
		}
	}
}

func BenchmarkTCAMBatch(b *testing.B) {
	for _, n := range batchBenchNs {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			rs := GenerateRuleSet(n, "prefix-only", 1)
			benchBatch(b, NewTCAM(rs), batchBenchTrace(b, rs))
		})
	}
}

func BenchmarkLinearBatch(b *testing.B) {
	for _, n := range batchBenchNs {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			rs := GenerateRuleSet(n, "prefix-only", 1)
			benchBatch(b, NewLinear(rs), batchBenchTrace(b, rs))
		})
	}
}

// Flow-cached benchmarks: the same engines fronted by the
// generation-tagged flow cache, swept across traffic-skew regimes. Under
// uniform traffic over a large flow population the cache mostly misses and
// the numbers bound its overhead; under Zipf skew (s = 0.9 and the paper
// classifiers' canonical s = 1.2) the hit rate climbs and ns/pkt collapses
// toward the probe cost. The hit% metric reports the steady-state rate so
// a run shows which regime each configuration landed in. The cached
// StrideBV path shares the uncached path's 0 allocs/op gate (CI parses
// BenchmarkCachedStrideBVBatch benchmem output).

// cachedBenchSkews spans the hit-rate regimes. A benchmark replays one
// fixed trace, so any cache with capacity >= the trace's distinct keys
// converges to all-hits whatever the skew; the regime is therefore the
// working-set-to-capacity ratio, and each entry sets both. uniform (s < 0)
// cycles nearly-all-distinct headers through a cache far smaller than the
// working set — CLOCK evicts every key before its reuse, so the numbers
// bound the cache's pure overhead on a miss-dominated workload. The Zipf
// flow-burst traces run against an amply sized cache and measure the
// hit-dominated regimes.
var cachedBenchSkews = []struct {
	name    string
	s       float64
	entries int
}{
	{"uniform", -1, 64},
	{"zipf0.9", 0.9, 1 << 14},
	{"zipf1.2", 1.2, 1 << 14},
}

// cachedBenchTrace draws a batchBenchSize trace in the requested skew
// regime: s < 0 selects the uncached benchmarks' directed trace
// (miss-dominated); s >= 0 a Zipf-s flow-burst trace over a 256-flow
// population directed at the ruleset (hit-dominated as s grows).
func cachedBenchTrace(tb testing.TB, rs *RuleSet, s float64) []Header {
	tb.Helper()
	if s < 0 {
		return GenerateTrace(rs, batchBenchSize, 0.9, 2)
	}
	pop := FlowHeaders(rs, 256, 0.9, 2)
	trace, err := ZipfTrace(pop, ZipfTraceConfig{Count: batchBenchSize, S: s, MeanBurst: 4, Seed: 3})
	if err != nil {
		tb.Fatal(err)
	}
	return trace
}

func benchCachedBatch(b *testing.B, eng Engine, trace []Header, entries int) {
	b.Helper()
	cached := NewCached(eng, NewFlowCache(FlowCacheConfig{Entries: entries}))
	out := make([]int, len(trace))
	ClassifyBatch(cached, trace, out) // warm the cache and scratch pools
	before := cached.Cache().Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ClassifyBatch(cached, trace, out)
	}
	b.StopTimer()
	after := cached.Cache().Stats()
	if b.N > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(trace)), "ns/pkt")
		hits := after.Hits - before.Hits
		if lookups := hits + after.Misses - before.Misses; lookups > 0 {
			b.ReportMetric(100*float64(hits)/float64(lookups), "hit%")
		}
	}
}

// Stride is fixed at the paper's k = 4 for the cached sweeps: the cache
// layer's cost is engine-independent, and the stride only scales the cost
// of the misses (which BenchmarkStrideBVBatch already sweeps).
func BenchmarkCachedStrideBVBatch(b *testing.B) {
	for _, skew := range cachedBenchSkews {
		for _, n := range batchBenchNs {
			b.Run(fmt.Sprintf("%s/k4/N%d", skew.name, n), func(b *testing.B) {
				rs := GenerateRuleSet(n, "prefix-only", 1)
				eng, err := NewStrideBV(rs, 4)
				if err != nil {
					b.Fatal(err)
				}
				benchCachedBatch(b, eng, cachedBenchTrace(b, rs, skew.s), skew.entries)
			})
		}
	}
}

func BenchmarkCachedRangeBVBatch(b *testing.B) {
	for _, skew := range cachedBenchSkews {
		for _, n := range batchBenchNs {
			b.Run(fmt.Sprintf("%s/k4/N%d", skew.name, n), func(b *testing.B) {
				rs := GenerateRuleSet(n, "firewall", 1)
				eng, err := NewRangeStrideBV(rs, 4)
				if err != nil {
					b.Fatal(err)
				}
				benchCachedBatch(b, eng, cachedBenchTrace(b, rs, skew.s), skew.entries)
			})
		}
	}
}

func BenchmarkCachedTCAMBatch(b *testing.B) {
	for _, skew := range cachedBenchSkews {
		for _, n := range batchBenchNs {
			b.Run(fmt.Sprintf("%s/N%d", skew.name, n), func(b *testing.B) {
				rs := GenerateRuleSet(n, "prefix-only", 1)
				benchCachedBatch(b, NewTCAM(rs), cachedBenchTrace(b, rs, skew.s), skew.entries)
			})
		}
	}
}

// The cached batch path must allocate nothing in steady state, in every
// hit-rate regime: hits are pure probes, and misses reuse the pooled
// scratch plus the inner engine's own zero-allocation batch path.
func TestCachedBatchZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race; zero-alloc gate runs in normal builds")
	}
	rs := GenerateRuleSet(512, "prefix-only", 1)
	eng, err := NewStrideBV(rs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, skew := range cachedBenchSkews {
		t.Run(skew.name, func(t *testing.T) {
			trace := cachedBenchTrace(t, rs, skew.s)
			cached := NewCached(eng, NewFlowCache(FlowCacheConfig{Entries: skew.entries}))
			out := make([]int, len(trace))
			ClassifyBatch(cached, trace, out) // warm cache and pools
			if avg := testing.AllocsPerRun(50, func() {
				ClassifyBatch(cached, trace, out)
			}); avg != 0 {
				t.Fatalf("cached batch path allocates %.1f allocs/op in steady state, want 0", avg)
			}
		})
	}
}

// The generic fallback in core.ClassifyBatchInto is the baseline the native
// paths are measured against: same engine, per-packet interface calls.
func BenchmarkStrideBVPerPacketBaseline(b *testing.B) {
	rs := GenerateRuleSet(512, "prefix-only", 1)
	eng, err := NewStrideBV(rs, 4)
	if err != nil {
		b.Fatal(err)
	}
	trace := batchBenchTrace(b, rs)
	out := make([]int, len(trace))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, h := range trace {
			out[j] = core.Engine(eng).Classify(h)
		}
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(trace)), "ns/pkt")
	}
}
