// Drive's tests. The TestServeTrace* tests replay a trace through a
// service once; the names contain Churn or Incremental where the CI
// update-churn job must select them.

package sim

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"pktclass/internal/core"
	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
	"pktclass/internal/serve"
	"pktclass/internal/stridebv"
)

func serveBuild(rs *ruleset.RuleSet) (core.Engine, error) {
	return stridebv.New(rs.Expand(), 4)
}

// newService starts a service the test closes on cleanup.
func newService(t testing.TB, rs *ruleset.RuleSet, build serve.BuildFunc, cfg serve.Config) *serve.Service {
	t.Helper()
	svc, err := serve.New(rs, build, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close(context.Background()) })
	return svc
}

// forEachShape runs f over the service shapes every replay must hold on:
// Workers 1 is the degenerate case of the one dispatch path, CacheEntries
// 0 the bare engine behind it.
func forEachShape(t *testing.T, f func(t *testing.T, cfg serve.Config)) {
	for _, workers := range []int{1, 4} {
		for _, cache := range []int{0, 1 << 12} {
			t.Run(fmt.Sprintf("workers=%d,cache=%d", workers, cache), func(t *testing.T) {
				f(t, serve.Config{Workers: workers, CacheEntries: cache})
			})
		}
	}
}

// replay is a Load that replays trace once as a single feed.
func replay(trace []packet.Header, batch int) Load {
	return Load{Feeds: [][]packet.Header{trace}, Batch: batch}
}

// checkFirstMatch fails the test on the first result that differs from the
// ruleset's linear first match.
func checkFirstMatch(t *testing.T, rs *ruleset.RuleSet, trace []packet.Header, results []int) {
	t.Helper()
	if len(results) != len(trace) {
		t.Fatalf("%d results for %d packets", len(results), len(trace))
	}
	for i, h := range trace {
		if want := rs.FirstMatch(h); results[i] != want {
			t.Fatalf("packet %d: got %d want %d", i, results[i], want)
		}
	}
}

func TestServeTraceNoChurnMatchesReference(t *testing.T) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 64, Profile: ruleset.PrefixOnly, Seed: 21, DefaultRule: true})
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 5000, MatchFraction: 0.8, Seed: 22})
	forEachShape(t, func(t *testing.T, cfg serve.Config) {
		cfg.Seed = 23
		svc := newService(t, rs, serveBuild, cfg)
		out, err := Drive(svc, replay(trace, 128))
		if err != nil {
			t.Fatal(err)
		}
		if out.Packets != int64(len(trace)) || out.Elapsed <= 0 {
			t.Fatalf("replay not measured: %d packets in %s", out.Packets, out.Elapsed)
		}
		checkFirstMatch(t, rs, trace, out.Results)
		if c := svc.Counters(); c.Classified != int64(len(trace)) || c.Swaps != 0 {
			t.Fatalf("counters = %+v, want %d classified and no swaps", c, len(trace))
		}
	})
}

func TestServeTraceUnderChurn(t *testing.T) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 64, Profile: ruleset.PrefixOnly, Seed: 24, DefaultRule: true})
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 20000, MatchFraction: 0.8, Seed: 25})
	forEachShape(t, func(t *testing.T, cfg serve.Config) {
		cfg.VerifyPackets, cfg.Seed = 32, 26
		svc := newService(t, rs, serveBuild, cfg)
		l := replay(trace, 64)
		l.OpsPerSwap, l.Swaps, l.Seed = 4, 5, 27
		out, err := Drive(svc, l)
		if err != nil {
			t.Fatal(err)
		}
		c := svc.Counters()
		if c.Classified != int64(len(trace)) {
			t.Fatalf("classified = %d, want %d", c.Classified, len(trace))
		}
		if c.FailedSwaps != 0 || out.Rollbacks != 0 {
			t.Fatalf("failed swaps: %d (rollbacks %d)", c.FailedSwaps, out.Rollbacks)
		}
		if c.Swaps > 5 || out.RuleOps != 4*c.Swaps {
			t.Fatalf("swaps = %d with %d rule ops, want <= 5 swaps of 4 ops", c.Swaps, out.RuleOps)
		}
		// The ruleset handed to the service must be untouched by churn.
		check := ruleset.Generate(ruleset.GenConfig{N: 64, Profile: ruleset.PrefixOnly, Seed: 24, DefaultRule: true})
		for i := range rs.Rules {
			if rs.Rules[i] != check.Rules[i] {
				t.Fatalf("caller ruleset mutated at rule %d", i)
			}
		}
	})
}

// failAfterFirstBuild builds the service's initial engine and fails every
// shadow build after it, so each swap attempt rolls back.
func failAfterFirstBuild() serve.BuildFunc {
	var builds atomic.Int64
	return func(rs *ruleset.RuleSet) (core.Engine, error) {
		if builds.Add(1) > 1 {
			return nil, errors.New("injected shadow build failure")
		}
		return serveBuild(rs)
	}
}

// A shadow build failing mid-replay is a measured outcome, not a harness
// error: Drive must keep churning, keep serving the previous engine, and
// report the count.
func TestServeTraceChurnToleratesRollbacks(t *testing.T) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 64, Profile: ruleset.PrefixOnly, Seed: 34, DefaultRule: true})
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 20000, MatchFraction: 0.8, Seed: 35})
	forEachShape(t, func(t *testing.T, cfg serve.Config) {
		const swaps = 4
		cfg.VerifyPackets, cfg.Seed = 16, 36
		svc := newService(t, rs, failAfterFirstBuild(), cfg)
		l := replay(trace, 64)
		l.OpsPerSwap, l.Swaps, l.Seed = 8, swaps, 37
		out, err := Drive(svc, l)
		if err != nil {
			t.Fatalf("rollback aborted the run: %v", err)
		}
		// The updater stops when the replay drains, so a fast shape may see
		// fewer than the requested attempts — but every one it sees fails.
		if out.Rollbacks < 1 || out.Rollbacks > swaps || out.RuleOps != 0 {
			t.Fatalf("rollbacks = %d, rule ops = %d; want 1..%d and 0", out.Rollbacks, out.RuleOps, swaps)
		}
		if c := svc.Counters(); c.FailedSwaps != out.Rollbacks || c.Swaps != 0 {
			t.Fatalf("counters = %+v, want %d failed swaps and 0 landed", c, out.Rollbacks)
		}
		// No swap ever landed, so every packet classifies against the
		// original ruleset.
		checkFirstMatch(t, rs, trace, out.Results)
	})
}

// A cycling run's updater keeps going after a rollback: every one of the
// bounded attempts is made and counted.
func TestDriveChurnContinuesAfterRollback(t *testing.T) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 64, Profile: ruleset.PrefixOnly, Seed: 38, DefaultRule: true})
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 2000, MatchFraction: 0.8, Seed: 39})
	svc := newService(t, rs, failAfterFirstBuild(), serve.Config{Workers: 2, VerifyPackets: 16})
	out, err := Drive(svc, Load{
		Feeds: [][]packet.Header{trace}, Batch: 64, For: 300 * time.Millisecond,
		OpsPerSwap: 4, Every: time.Millisecond, Swaps: 4, Seed: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rollbacks != 4 || svc.Counters().FailedSwaps != 4 {
		t.Fatalf("rollbacks = %d, failed swaps = %d; want all 4 attempts made", out.Rollbacks, svc.Counters().FailedSwaps)
	}
}

// GenerateOps refuses a ruleset that is not prefix-only, so churn over a
// firewall set fails before any traffic instead of leaving the feeders
// running churn-free.
func TestServeTraceChurnRequiresPrefixOnly(t *testing.T) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 32, Profile: ruleset.FirewallProfile, Seed: 27, DefaultRule: true})
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 100, MatchFraction: 0.8, Seed: 28})
	svc := newService(t, rs, serveBuild, serve.Config{Workers: 2})
	for _, l := range []Load{
		{Feeds: [][]packet.Header{trace}, Batch: 16, OpsPerSwap: 8},
		{Feeds: [][]packet.Header{trace, trace}, Batch: 16, For: time.Minute, OpsPerSwap: 8, Every: 5 * time.Millisecond},
	} {
		if _, err := Drive(svc, l); err == nil {
			t.Fatalf("range ruleset accepted for churn (For %s)", l.For)
		}
	}
	if c := svc.Counters(); c.Classified != 0 {
		t.Fatalf("a rejected churn run classified %d packets", c.Classified)
	}
}

// A feeder's error stops the run too, instead of that feeder going quiet.
func TestDriveFeederErrorStopsRun(t *testing.T) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 16, Profile: ruleset.PrefixOnly, Seed: 41, DefaultRule: true})
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 100, MatchFraction: 0.8, Seed: 42})
	svc := newService(t, rs, serveBuild, serve.Config{Workers: 2})
	if err := svc.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := Drive(svc, Load{Feeds: [][]packet.Header{trace, trace}, Batch: 16, For: time.Minute})
	if !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("err = %v, want serve.ErrClosed", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("feeder error took %s to stop the run", d)
	}
}

func TestServeTraceEmptyTrace(t *testing.T) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 8, Profile: ruleset.PrefixOnly, Seed: 29, DefaultRule: true})
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 10, MatchFraction: 0.8, Seed: 30})
	svc := newService(t, rs, serveBuild, serve.Config{Workers: 1})
	for _, feeds := range [][][]packet.Header{nil, {nil}, {trace, {}}} {
		for _, d := range []time.Duration{0, time.Millisecond} {
			if _, err := Drive(svc, Load{Feeds: feeds, Batch: 4, For: d}); err == nil {
				t.Fatalf("feeds %v accepted (For %s)", feeds, d)
			}
		}
	}
}

// A batch below one used to panic (-1) or spin without classifying (0).
func TestDriveRejectsBadBatch(t *testing.T) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 8, Profile: ruleset.PrefixOnly, Seed: 43, DefaultRule: true})
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 10, MatchFraction: 0.8, Seed: 44})
	svc := newService(t, rs, serveBuild, serve.Config{Workers: 1})
	for _, l := range []Load{
		{Batch: 0}, {Batch: -1}, {Batch: 0, For: time.Minute}, {Batch: 4, OpsPerSwap: -1},
	} {
		l.Feeds = [][]packet.Header{trace}
		if _, err := Drive(svc, l); err == nil {
			t.Fatalf("load %+v accepted", l)
		}
	}
	if c := svc.Counters(); c.Classified != 0 {
		t.Fatalf("a rejected load classified %d packets", c.Classified)
	}
}

func TestServeTraceSmallQueueBackpressure(t *testing.T) {
	// A one-slot queue behind one worker: every 64-packet share is handed
	// off (it is over the inline bound), so concurrent feeders block on
	// the queue; results must still come back complete and in order.
	rs := ruleset.Generate(ruleset.GenConfig{N: 32, Profile: ruleset.PrefixOnly, Seed: 30, DefaultRule: true})
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 3000, MatchFraction: 0.8, Seed: 31})
	svc := newService(t, rs, serveBuild, serve.Config{Workers: 1, QueueDepth: 1})
	feeds := Split(trace, 4)
	out, err := Drive(svc, Load{Feeds: feeds, Batch: 64})
	if err != nil {
		t.Fatal(err)
	}
	checkFirstMatch(t, rs, trace, out.Results)
	// A synchronous feeder has at most one share queued or blocked in its
	// send at a time.
	if hw := svc.Counters().QueueHighWater; hw < 1 || hw > int64(len(feeds)) {
		t.Fatalf("queue high-water = %d behind a 1-slot queue, want 1..%d", hw, len(feeds))
	}
}

// A cycling run under churn accounts for every packet and every committed
// rule op: Packets is the service's classified count, RuleOps the
// committed swaps times the ops in each.
func TestDriveChurnAccounting(t *testing.T) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 64, Profile: ruleset.PrefixOnly, Seed: 45, DefaultRule: true})
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 4000, MatchFraction: 0.8, Seed: 46})
	svc := newService(t, rs, serveBuild, serve.Config{
		Workers: 2, CacheEntries: 1 << 12, Incremental: true, VerifyPackets: 16, Seed: 47,
	})
	before := svc.Counters()
	const ops = 4
	out, err := Drive(svc, Load{
		Feeds: Split(trace, 2), Batch: 64, For: 100 * time.Millisecond, OpsPerSwap: ops, Seed: 48,
	})
	if err != nil {
		t.Fatal(err)
	}
	after := svc.Counters()
	if out.Results != nil || out.Elapsed < 100*time.Millisecond {
		t.Fatalf("cycling run: %d results in %s", len(out.Results), out.Elapsed)
	}
	if d := after.Classified - before.Classified; out.Packets != d || d == 0 {
		t.Fatalf("Packets = %d, service classified %d", out.Packets, d)
	}
	committed := after.Swaps + after.IncrementalSwaps - before.Swaps - before.IncrementalSwaps
	if out.RuleOps != committed*ops || committed == 0 {
		t.Fatalf("RuleOps = %d for %d committed swaps of %d ops", out.RuleOps, committed, ops)
	}
}

func BenchmarkDriveChurn(b *testing.B) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 256, Profile: ruleset.PrefixOnly, Seed: 32, DefaultRule: true})
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 10000, MatchFraction: 0.8, Seed: 33})
	l := replay(trace, 64)
	l.OpsPerSwap, l.Swaps, l.Seed = 8, 3, 1
	for i := 0; i < b.N; i++ {
		svc := newService(b, rs, serveBuild, serve.Config{VerifyPackets: 32})
		if _, err := Drive(svc, l); err != nil {
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
	svc := newService(t, rs, serveBuild, serve.Config{Workers: 4, CacheEntries: 1 << 12, Seed: 64})
	out, err := Drive(svc, replay(trace, 128))
	if err != nil {
		t.Fatal(err)
	}
	checkFirstMatch(t, rs, trace, out.Results)
	c := svc.Counters()
	if !c.CacheEnabled {
		t.Fatal("cache not reported enabled")
	}
	if hr := c.Cache.HitRate(); hr < 0.5 {
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
	svc := newService(t, rs, serveBuild, serve.Config{Workers: 4, CacheEntries: 1 << 12, VerifyPackets: 32, Seed: 68})
	l := replay(trace, 128)
	l.OpsPerSwap, l.Swaps, l.Seed = 4, 10, 69
	out, err := Drive(svc, l)
	if err != nil {
		t.Fatal(err)
	}
	// Under replacement churn a batch reflects the version it observed, so
	// only service-level accounting is checkable here; the differential
	// staleness guarantees live in serve and core tests. The updater stops
	// when the replay drains, so only some of the requested swaps may land
	// (fewer still under -race).
	c := svc.Counters()
	if c.Swaps+out.Rollbacks == 0 {
		t.Fatalf("churn landed no swaps at all: %+v", c)
	}
	if c.Cache.Hits == 0 {
		t.Fatalf("no cache hits under churn: %+v", c.Cache)
	}
}

// TestServeTraceIncrementalChurn routes the churn swaps through the
// engines' O(delta) path and checks the swaps actually took it.
func TestServeTraceIncrementalChurn(t *testing.T) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 64, Profile: ruleset.PrefixOnly, Seed: 91, DefaultRule: true})
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 20000, MatchFraction: 0.8, Seed: 92})
	forEachShape(t, func(t *testing.T, cfg serve.Config) {
		cfg.VerifyPackets, cfg.Incremental, cfg.Seed = 32, true, 93
		svc := newService(t, rs, serveBuild, cfg)
		l := replay(trace, 64)
		l.OpsPerSwap, l.Swaps, l.Seed = 4, 5, 94
		if _, err := Drive(svc, l); err != nil {
			t.Fatal(err)
		}
		c := svc.Counters()
		if c.Classified != int64(len(trace)) {
			t.Fatalf("classified = %d, want %d", c.Classified, len(trace))
		}
		if c.IncrementalSwaps == 0 {
			t.Fatalf("no swap took the incremental path: %+v", c)
		}
		if c.IncrementalRollbacks != 0 || c.FailedSwaps != 0 {
			t.Fatalf("unexpected rollbacks: %+v", c)
		}
	})
}
