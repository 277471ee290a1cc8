package serve

// End-to-end observability: a service wired with an Obs must populate the
// submit-wait / classify-batch / cache-probe histograms from classify
// traffic, split every hot-swap into build/verify/total phase samples,
// register its counters in the shared registry (so /metrics and Counters
// read the same instruments), and sample packet traces that narrate the
// engine stages and name the worker that ran them.

import (
	"context"
	"sync/atomic"
	"testing"

	"pktclass/internal/core"
	"pktclass/internal/obsv"
	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
	"pktclass/internal/update"
)

func TestObservedServiceEndToEnd(t *testing.T) {
	rs := prefixSet(t, 64, 41)
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 2048, MatchFraction: 0.8, Seed: 42})
	obs := obsv.NewObs(nil, obsv.NewTracer(1, 32))
	svc, err := New(rs.Clone(), strideBuild, Config{
		Workers: 2, QueueDepth: 8, CacheEntries: 1 << 10, VerifyPackets: 64, Seed: 43, Obs: obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, svc)

	ctx := context.Background()
	batches := 0
	for lo := 0; lo < len(trace); lo += 128 {
		hi := lo + 128
		if hi > len(trace) {
			hi = len(trace)
		}
		if _, err := svc.Classify(ctx, trace[lo:hi]); err != nil {
			t.Fatal(err)
		}
		batches++
	}
	cur := svc.RuleSet()
	ops := []update.Op{{Index: 0, Rule: cur.Rules[0]}}
	if err := svc.ApplyOps(ops); err != nil {
		t.Fatal(err)
	}

	// Every worker's share of a batch contributes exactly one sample to the
	// submit-wait, classify-batch, and cache-probe histograms, every batch
	// one to the scatter histogram; the one swap contributes one sample to
	// each swap phase.
	var subBatches int64
	for _, wl := range svc.WorkerLoads() {
		subBatches += wl.Batches
	}
	if subBatches < int64(batches) || subBatches > 2*int64(batches) {
		t.Fatalf("%d sub-batches from %d batches on 2 workers", subBatches, batches)
	}
	for _, tc := range []struct {
		name string
		h    *obsv.Histogram
		want int64
	}{
		{obsv.HistSubmitWait, obs.SubmitWait, subBatches},
		{obsv.HistClassifyBatch, obs.ClassifyBatch, subBatches},
		{obsv.HistCacheProbe, obs.CacheProbe, subBatches},
		{obsv.HistSteerScatter, obs.SteerScatter, int64(batches)},
		{obsv.HistSwapBuild, obs.SwapBuild, 1},
		{obsv.HistSwapVerify, obs.SwapVerify, 1},
		{obsv.HistSwapTotal, obs.SwapTotal, 1},
	} {
		snap := tc.h.Snapshot()
		if snap.Count != tc.want {
			t.Fatalf("%s: %d samples, want %d", tc.name, snap.Count, tc.want)
		}
		if snap.Sum < 0 || snap.Max < 0 {
			t.Fatalf("%s: negative durations in %+v", tc.name, snap)
		}
	}

	// The service's counters live in the Obs registry — the exposition layer
	// and Counters() must read the same instruments.
	if svc.Registry() != obs.Reg {
		t.Fatal("service registry is not the Obs registry")
	}
	snap := obs.Reg.Snapshot()
	if got := snap.Counters["serve.classified"]; got != int64(len(trace)) {
		t.Fatalf("registry serve.classified = %d, want %d", got, len(trace))
	}
	if got := snap.Counters["serve.batches"]; got != int64(batches) {
		t.Fatalf("registry serve.batches = %d, want %d", got, batches)
	}
	if got := snap.Counters["serve.swaps"]; got != 1 {
		t.Fatalf("registry serve.swaps = %d, want 1", got)
	}
	// Every share of an asynchronous batch is handed off, and each hand-off
	// counts once, warm or cold.
	if w, c := snap.Counters["serve.handoffs_warm"], snap.Counters["serve.handoffs_cold"]; w+c != subBatches {
		t.Fatalf("registry serve.handoffs_warm %d + serve.handoffs_cold %d, want %d sub-batches", w, c, subBatches)
	}
	if got, ok := snap.Gauges["serve.swap_last_ns"]; !ok || got.Max <= 0 || snap.Counters["serve.swap_ns"] != got.Max {
		t.Fatalf("one swap: serve.swap_last_ns = %+v (ok=%v), serve.swap_ns = %d", got, ok, snap.Counters["serve.swap_ns"])
	}
	if _, ok := snap.Histograms[obsv.HistSubmitWait]; !ok {
		t.Fatalf("registry snapshot missing %s: %v", obsv.HistSubmitWait, snap.Histograms)
	}
	c := svc.Counters()
	if c.Classified != snap.Counters["serve.classified"] {
		t.Fatalf("Counters().Classified %d != registry %d", c.Classified, snap.Counters["serve.classified"])
	}

	// With 1-in-1 sampling every sub-batch traced one packet through the
	// per-packet path: traces must have flowed through the ring, and they
	// narrate the bare engine (a cache hit would hide exactly the decision
	// the trace exists to show) on the worker that owns the flow.
	ref := core.NewLinear(rs)
	stats := obs.Tracer.Stats()
	if stats.Sampled == 0 {
		t.Fatal("tracer sampled nothing at 1-in-1")
	}
	traces := obs.Tracer.Snapshot()
	if len(traces) == 0 {
		t.Fatal("tracer ring is empty after traffic")
	}
	for _, tr := range traces {
		hops := tr.HopSlice()
		if len(hops) == 0 {
			t.Fatalf("captured trace has no hops: %+v", tr)
		}
		if k := hops[0].Kind; k == obsv.HopCacheHit || k == obsv.HopCacheMiss {
			t.Fatalf("trace went through the cache: first hop = %v", k)
		}
		if want := packet.SteerWorker(tr.Hdr.Key().Hash(), 2); int(tr.Worker) != want {
			t.Fatalf("trace attributes %s to worker %d, steering says %d", tr.Hdr, tr.Worker, want)
		}
		if tr.Engine == "" {
			t.Fatalf("captured trace has no engine name: %+v", tr)
		}
		// Ground the captured result against the linear reference: the
		// test's swap replaces a rule with itself, so every engine version
		// has the same semantics.
		if want := ref.Classify(tr.Hdr); tr.Result != want {
			t.Fatalf("traced result %d != reference %d for %s", tr.Result, want, tr.Hdr)
		}
	}
}

// TestObservedServiceSwapVerifyFailureStillTimed pins a subtle contract:
// the verify-phase histogram observes failed verifications too, so p99
// swap-verify latency reflects what rollbacks cost, not only successes.
func TestObservedServiceSwapVerifyFailureStillTimed(t *testing.T) {
	rs := prefixSet(t, 32, 44)
	obs := obsv.NewObs(nil, nil)
	var builds atomic.Int64
	build := func(rs *ruleset.RuleSet) (core.Engine, error) {
		eng, err := strideBuild(rs)
		if err != nil {
			return nil, err
		}
		if builds.Add(1) > 1 {
			return misclassifier{eng}, nil
		}
		return eng, nil
	}
	svc, err := New(rs.Clone(), build, Config{
		Workers: 1, VerifyPackets: 32, Seed: 45, Obs: obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, svc)
	cur := svc.RuleSet()
	err = svc.ApplyOps([]update.Op{{Index: 0, Rule: cur.Rules[0]}})
	if err == nil {
		t.Fatal("swap with a lying engine should have rolled back")
	}
	if got := obs.SwapBuild.Snapshot().Count; got != 1 {
		t.Fatalf("swap_build count = %d, want 1", got)
	}
	if got := obs.SwapVerify.Snapshot().Count; got != 1 {
		t.Fatalf("swap_verify must observe the failed verification, count = %d", got)
	}
	if got := obs.SwapTotal.Snapshot().Count; got != 0 {
		t.Fatalf("swap_total must only observe committed swaps, count = %d", got)
	}
	if got := obs.Reg.Counter("serve.failed_swaps").Value(); got != 1 {
		t.Fatalf("serve.failed_swaps = %d, want 1", got)
	}
}

// TestUnobservedServiceStampsNothing guards the nil-Obs fast path: no enq
// timestamps, no histogram samples, and counters live in a private
// registry rather than a shared one.
func TestUnobservedServiceStampsNothing(t *testing.T) {
	rs := prefixSet(t, 32, 46)
	svc, err := New(rs.Clone(), strideBuild, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, svc)
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 64, MatchFraction: 0.8, Seed: 47})
	if _, err := svc.Classify(context.Background(), trace); err != nil {
		t.Fatal(err)
	}
	if svc.Registry() == nil {
		t.Fatal("unobserved service still needs a private registry")
	}
	if got := svc.Registry().Snapshot().Counters["serve.classified"]; got != int64(len(trace)) {
		t.Fatalf("private registry serve.classified = %d, want %d", got, len(trace))
	}
}

// TestUnobservedServiceRegistersNoHistogram guards the unobserved heap: the
// always-on swap summary is a counter and a gauge, so a Config{} service
// that has swapped through ApplyOps and Reload still holds no Histogram
// (each is eight striped shards of bucket counters, about 31.5 KiB).
func TestUnobservedServiceRegistersNoHistogram(t *testing.T) {
	rs := prefixSet(t, 32, 48)
	svc, err := New(rs.Clone(), strideBuild, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, svc)
	cur := svc.RuleSet()
	if err := svc.ApplyOps([]update.Op{{Index: 0, Rule: cur.Rules[0]}}); err != nil {
		t.Fatal(err)
	}
	if err := svc.Reload(rs); err != nil {
		t.Fatal(err)
	}
	if c := svc.Counters(); c.Swaps != 2 || c.SwapLatencyMax == 0 {
		t.Fatalf("swaps not recorded: %+v", c)
	}
	if h := svc.Registry().Snapshot().Histograms; len(h) != 0 {
		t.Fatalf("unobserved service registered histograms: %v", h)
	}
}

// TestSwapSummaryMatchesHistogram pins the always-on swap summary to the
// observed distribution: over rebuild and incremental commits alike,
// Counters' max and mean are exactly the serve.swap_total histogram's.
func TestSwapSummaryMatchesHistogram(t *testing.T) {
	rs := prefixSet(t, 64, 49)
	obs := obsv.NewObs(nil, nil)
	svc, err := New(rs.Clone(), strideBuild, Config{Workers: 2, Incremental: true, VerifyPackets: 64, Seed: 50, Obs: obs})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, svc)
	for n := 0; n < 6; n++ {
		if n%2 == 0 {
			ops, err := update.GenerateOps(svc.RuleSet(), 4, int64(300+n))
			if err != nil {
				t.Fatal(err)
			}
			err = svc.ApplyOps(ops)
		} else {
			err = svc.Reload(svc.RuleSet())
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	c := svc.Counters()
	if c.Swaps != 3 || c.IncrementalSwaps != 3 {
		t.Fatalf("want 3 rebuild and 3 incremental swaps: %+v", c)
	}
	h := obs.SwapTotal.Snapshot()
	if h.Count != c.Swaps+c.IncrementalSwaps {
		t.Fatalf("swap_total count %d != %d committed swaps", h.Count, c.Swaps+c.IncrementalSwaps)
	}
	if int64(c.SwapLatencyMax) != h.Max {
		t.Fatalf("SwapLatencyMax %d != swap_total max %d", c.SwapLatencyMax, h.Max)
	}
	if int64(c.SwapLatencyMean) != h.Sum/h.Count {
		t.Fatalf("SwapLatencyMean %d != swap_total sum/count %d", c.SwapLatencyMean, h.Sum/h.Count)
	}
}
