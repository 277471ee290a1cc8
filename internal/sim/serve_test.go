package sim

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"pktclass/internal/core"
	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
	"pktclass/internal/stridebv"
)

func serveBuild(rs *ruleset.RuleSet) (core.Engine, error) {
	return stridebv.New(rs.Expand(), 4)
}

// forEachShape runs f over the service shapes every replay must hold on:
// Workers 1 is the degenerate case of the one dispatch path, CacheEntries
// 0 the bare engine behind it.
func forEachShape(t *testing.T, f func(t *testing.T, cfg ServeConfig)) {
	for _, workers := range []int{1, 4} {
		for _, cache := range []int{0, 1 << 12} {
			t.Run(fmt.Sprintf("workers=%d,cache=%d", workers, cache), func(t *testing.T) {
				f(t, ServeConfig{Workers: workers, CacheEntries: cache})
			})
		}
	}
}

// checkFirstMatch fails the test on the first result that differs from the
// ruleset's linear first match.
func checkFirstMatch(t *testing.T, rs *ruleset.RuleSet, trace []packet.Header, results []int) {
	t.Helper()
	for i, h := range trace {
		if want := rs.FirstMatch(h); results[i] != want {
			t.Fatalf("packet %d: got %d want %d", i, results[i], want)
		}
	}
}

func TestServeTraceNoChurnMatchesReference(t *testing.T) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 64, Profile: ruleset.PrefixOnly, Seed: 21, DefaultRule: true})
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 5000, MatchFraction: 0.8, Seed: 22})
	forEachShape(t, func(t *testing.T, cfg ServeConfig) {
		cfg.BatchSize, cfg.Seed = 128, 23
		res, err := ServeTrace(rs, serveBuild, trace, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Packets != len(trace) || len(res.Results) != len(trace) {
			t.Fatalf("sizing wrong: %d/%d", res.Packets, len(res.Results))
		}
		checkFirstMatch(t, rs, trace, res.Results)
		if res.PacketsPerSec <= 0 || res.BaselinePacketsPerSec <= 0 {
			t.Fatalf("rates not measured: %+v", res)
		}
		if res.Counters.Classified != int64(len(trace)) {
			t.Fatalf("classified = %d, want %d", res.Counters.Classified, len(trace))
		}
		if res.Counters.Swaps != 0 {
			t.Fatalf("unexpected swaps: %d", res.Counters.Swaps)
		}
	})
}

func TestServeTraceUnderChurn(t *testing.T) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 64, Profile: ruleset.PrefixOnly, Seed: 24, DefaultRule: true})
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 20000, MatchFraction: 0.8, Seed: 25})
	forEachShape(t, func(t *testing.T, cfg ServeConfig) {
		cfg.BatchSize, cfg.Churn, cfg.Swaps, cfg.OpsPerSwap = 64, true, 5, 4
		cfg.VerifyPackets, cfg.Seed = 32, 26
		res, err := ServeTrace(rs, serveBuild, trace, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Counters.Classified != int64(len(trace)) {
			t.Fatalf("classified = %d, want %d", res.Counters.Classified, len(trace))
		}
		if res.Counters.FailedSwaps != 0 {
			t.Fatalf("failed swaps: %d", res.Counters.FailedSwaps)
		}
		if res.Counters.Swaps > 5 {
			t.Fatalf("swaps = %d, want <= 5", res.Counters.Swaps)
		}
		// The input ruleset must be untouched by churn.
		check := ruleset.Generate(ruleset.GenConfig{N: 64, Profile: ruleset.PrefixOnly, Seed: 24, DefaultRule: true})
		for i := range rs.Rules {
			if rs.Rules[i] != check.Rules[i] {
				t.Fatalf("caller ruleset mutated at rule %d", i)
			}
		}
	})
}

// A shadow build failing mid-replay used to abort the whole experiment.
// Rollbacks are a measured outcome: the harness must keep churning, keep
// serving the previous engine, and report the count.
func TestServeTraceChurnToleratesRollbacks(t *testing.T) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 64, Profile: ruleset.PrefixOnly, Seed: 34, DefaultRule: true})
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 20000, MatchFraction: 0.8, Seed: 35})
	forEachShape(t, func(t *testing.T, cfg ServeConfig) {
		// Builds 1 (churn-free baseline) and 2 (the service's initial engine)
		// succeed; every shadow build the updater triggers after that fails,
		// so each swap attempt rolls back.
		var builds atomic.Int64
		failingBuild := func(rs *ruleset.RuleSet) (core.Engine, error) {
			if builds.Add(1) > 2 {
				return nil, errors.New("injected shadow build failure")
			}
			return serveBuild(rs)
		}
		const swaps = 4
		cfg.BatchSize, cfg.Churn, cfg.Swaps, cfg.VerifyPackets, cfg.Seed = 64, true, swaps, 16, 36
		res, err := ServeTrace(rs, failingBuild, trace, cfg)
		if err != nil {
			t.Fatalf("rollback aborted the experiment: %v", err)
		}
		// The updater stops when the replay drains, so a fast shape may see
		// fewer than the requested attempts — but every one it sees fails.
		if res.Rollbacks < 1 || res.Rollbacks > swaps {
			t.Fatalf("rollbacks = %d, want 1..%d", res.Rollbacks, swaps)
		}
		if c := res.Counters; c.FailedSwaps != res.Rollbacks || c.Swaps != 0 {
			t.Fatalf("counters = %+v, want %d failed swaps and 0 landed", c, res.Rollbacks)
		}
		// No swap ever landed, so every packet classifies against the
		// original ruleset.
		checkFirstMatch(t, rs, trace, res.Results)
	})
}

func TestServeTraceChurnRequiresPrefixOnly(t *testing.T) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 32, Profile: ruleset.FirewallProfile, Seed: 27, DefaultRule: true})
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 100, MatchFraction: 0.8, Seed: 28})
	if _, err := ServeTrace(rs, serveBuild, trace, ServeConfig{Churn: true}); err == nil {
		t.Fatal("range ruleset accepted for churn")
	}
}

func TestServeTraceEmptyTrace(t *testing.T) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 8, Profile: ruleset.PrefixOnly, Seed: 29, DefaultRule: true})
	if _, err := ServeTrace(rs, serveBuild, nil, ServeConfig{}); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestServeTraceSmallQueueBackpressure(t *testing.T) {
	// A one-batch queue makes nearly every Submit of the replay block on
	// the lone worker; results must still come back complete and ordered.
	rs := ruleset.Generate(ruleset.GenConfig{N: 32, Profile: ruleset.PrefixOnly, Seed: 30, DefaultRule: true})
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 3000, MatchFraction: 0.8, Seed: 31})
	res, err := ServeTrace(rs, serveBuild, trace, ServeConfig{Workers: 1, QueueDepth: 1, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	checkFirstMatch(t, rs, trace, res.Results)
	// One task with the worker, one buffered, one blocked in its send.
	if hw := res.Counters.QueueHighWater; hw < 1 || hw > 3 {
		t.Fatalf("queue high-water = %d behind a 1-slot queue, want 1..3", hw)
	}
}

func BenchmarkServeTraceChurn(b *testing.B) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 256, Profile: ruleset.PrefixOnly, Seed: 32, DefaultRule: true})
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 10000, MatchFraction: 0.8, Seed: 33})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ServeTrace(rs, serveBuild, trace, ServeConfig{Churn: true, Swaps: 3, VerifyPackets: 32}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestServeTraceCachedNoChurn(t *testing.T) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 64, Profile: ruleset.PrefixOnly, Seed: 61, DefaultRule: true})
	// A Zipf flow-burst trace: the reuse the cache exists to exploit.
	pop := ruleset.FlowHeaders(rs, 256, 0.8, 62)
	trace, err := packet.ZipfTrace(pop, packet.ZipfTraceConfig{Count: 8000, S: 1.2, MeanBurst: 4, Seed: 63})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ServeTrace(rs, serveBuild, trace, ServeConfig{
		Workers: 4, BatchSize: 128, CacheEntries: 1 << 12, Seed: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkFirstMatch(t, rs, trace, res.Results)
	if !res.Counters.CacheEnabled {
		t.Fatal("cache not reported enabled")
	}
	if hr := res.Counters.Cache.HitRate(); hr < 0.5 {
		t.Fatalf("hit rate %.2f on a 256-flow zipf trace, want >= 0.5", hr)
	}
}

func TestServeTraceCachedUnderChurn(t *testing.T) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 64, Profile: ruleset.PrefixOnly, Seed: 65, DefaultRule: true})
	pop := ruleset.FlowHeaders(rs, 256, 0.8, 66)
	trace, err := packet.ZipfTrace(pop, packet.ZipfTraceConfig{Count: 20000, S: 1.2, MeanBurst: 4, Seed: 67})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ServeTrace(rs, serveBuild, trace, ServeConfig{
		Workers: 4, BatchSize: 128, CacheEntries: 1 << 12,
		Churn: true, Swaps: 10, OpsPerSwap: 4, VerifyPackets: 32, Seed: 68,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Under replacement churn a batch reflects the version it observed, so
	// only service-level accounting is checkable here; the differential
	// staleness guarantees live in serve and core tests. The updater stops
	// when the replay drains, so only some of the requested swaps may land
	// (fewer still under -race).
	if res.Counters.Swaps+res.Rollbacks == 0 {
		t.Fatalf("churn landed no swaps at all: %+v", res.Counters)
	}
	if res.Counters.Cache.Hits == 0 {
		t.Fatalf("no cache hits under churn: %+v", res.Counters.Cache)
	}
}

// TestServeTraceIncrementalChurn routes the churn swaps through the
// engines' O(delta) path and checks the swaps actually took it.
func TestServeTraceIncrementalChurn(t *testing.T) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 64, Profile: ruleset.PrefixOnly, Seed: 91, DefaultRule: true})
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 20000, MatchFraction: 0.8, Seed: 92})
	forEachShape(t, func(t *testing.T, cfg ServeConfig) {
		cfg.BatchSize, cfg.Churn, cfg.Swaps, cfg.OpsPerSwap = 64, true, 5, 4
		cfg.VerifyPackets, cfg.Incremental, cfg.Seed = 32, true, 93
		res, err := ServeTrace(rs, serveBuild, trace, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Counters.Classified != int64(len(trace)) {
			t.Fatalf("classified = %d, want %d", res.Counters.Classified, len(trace))
		}
		if res.Counters.IncrementalSwaps == 0 {
			t.Fatalf("no swap took the incremental path: %+v", res.Counters)
		}
		if res.Counters.IncrementalRollbacks != 0 || res.Counters.FailedSwaps != 0 {
			t.Fatalf("unexpected rollbacks: %+v", res.Counters)
		}
	})
}
