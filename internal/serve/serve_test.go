package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pktclass/internal/core"
	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
	"pktclass/internal/stridebv"
	"pktclass/internal/update"
)

func strideBuild(rs *ruleset.RuleSet) (core.Engine, error) {
	return stridebv.New(rs.Expand(), 4)
}

func linearBuild(rs *ruleset.RuleSet) (core.Engine, error) {
	return core.NewLinear(rs), nil
}

func prefixSet(t testing.TB, n int, seed int64) *ruleset.RuleSet {
	t.Helper()
	return ruleset.Generate(ruleset.GenConfig{N: n, Profile: ruleset.PrefixOnly, Seed: seed, DefaultRule: true})
}

func mustClose(t testing.TB, s *Service) {
	t.Helper()
	if err := s.Close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// forEachShape runs f over the service shapes every behavioural test must
// hold on: Workers 1 is the degenerate case of the one dispatch path,
// CacheEntries 0 the bare engine behind it.
func forEachShape(t *testing.T, f func(t *testing.T, cfg Config)) {
	for _, workers := range []int{1, 4} {
		for _, cache := range []int{0, 1 << 12} {
			t.Run(fmt.Sprintf("workers=%d,cache=%d", workers, cache), func(t *testing.T) {
				f(t, Config{Workers: workers, CacheEntries: cache})
			})
		}
	}
}

// classifyChunks replays trace through the service in batches of n and
// hands every completed batch to check.
func classifyChunks(t *testing.T, svc *Service, trace []packet.Header, n int, check func(lo int, hdrs []packet.Header, got []int)) {
	t.Helper()
	for lo := 0; lo < len(trace); lo += n {
		hi := min(lo+n, len(trace))
		got, err := svc.Classify(context.Background(), trace[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		check(lo, trace[lo:hi], got)
	}
}

// checkAgainst returns a classifyChunks callback that fails the test on the
// first packet whose result differs from ref.
func checkAgainst(t *testing.T, tag string, ref core.Engine) func(int, []packet.Header, []int) {
	return func(lo int, hdrs []packet.Header, got []int) {
		t.Helper()
		for i, h := range hdrs {
			if want := ref.Classify(h); got[i] != want {
				t.Fatalf("%s: packet %d: got %d want %d", tag, lo+i, got[i], want)
			}
		}
	}
}

func TestServiceClassifiesLikeReference(t *testing.T) {
	rs := prefixSet(t, 64, 1)
	// Heavy 5-tuple reuse so a cached shape answers the second replay from
	// its private caches.
	pop := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 200, MatchFraction: 0.8, Seed: 2})
	trace := make([]packet.Header, 4000)
	for i := range trace {
		trace[i] = pop[(i*13)%len(pop)]
	}
	ref := core.NewLinear(rs)
	forEachShape(t, func(t *testing.T, cfg Config) {
		cfg.QueueDepth = 8
		svc, err := New(rs.Clone(), strideBuild, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer mustClose(t, svc)
		for pass := 0; pass < 2; pass++ {
			classifyChunks(t, svc, trace, 128, checkAgainst(t, fmt.Sprint("pass ", pass), ref))
		}
		c := svc.Counters()
		if c.Classified != int64(2*len(trace)) {
			t.Fatalf("classified %d, want %d", c.Classified, 2*len(trace))
		}
		if c.Batches == 0 || c.QueueHighWater == 0 {
			t.Fatalf("counters not populated: %+v", c)
		}
		stats, ok := svc.CacheStats()
		if ok != (cfg.CacheEntries > 0) || c.CacheEnabled != ok {
			t.Fatalf("cache reported enabled=%v/%v with CacheEntries=%d", ok, c.CacheEnabled, cfg.CacheEntries)
		}
		if ok && (stats.Hits == 0 || c.Cache.Hits != stats.Hits || stats.Shards != cfg.Workers) {
			t.Fatalf("cache stats after a reuse-heavy double replay: %+v vs counters %+v", stats, c.Cache)
		}
	})
}

func TestEmptyBatchCompletesImmediately(t *testing.T) {
	svc, err := New(prefixSet(t, 8, 1), linearBuild, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, svc)
	got, err := svc.Classify(context.Background(), nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty batch: %v %v", got, err)
	}
}

// TestCorrectnessAcross100HotSwaps is the headline concurrency guarantee:
// classification results stay differentially correct against the linear
// reference while well over 100 hot-swaps land mid-trace. The swaps
// replace rules with themselves, so every installed engine version is
// semantically identical and each result has a single ground truth, while
// the full build-verify-swap machinery still runs for every swap.
func TestCorrectnessAcross100HotSwaps(t *testing.T) {
	const wantSwaps = 120
	rs := prefixSet(t, 64, 3)
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 2000, MatchFraction: 0.8, Seed: 4})
	ref := core.NewLinear(rs)
	forEachShape(t, func(t *testing.T, cfg Config) {
		cfg.QueueDepth, cfg.VerifyPackets, cfg.Seed = 8, 64, 5
		svc, err := New(rs.Clone(), strideBuild, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer mustClose(t, svc)

		var swapsDone atomic.Bool
		var updaterErr error
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer swapsDone.Store(true)
			for n := 0; n < wantSwaps; n++ {
				cur := svc.RuleSet()
				ops := []update.Op{
					{Index: n % cur.Len(), Rule: cur.Rules[n%cur.Len()]},
					{Index: (n * 7) % cur.Len(), Rule: cur.Rules[(n*7)%cur.Len()]},
				}
				if err := svc.ApplyOps(ops); err != nil {
					updaterErr = err
					return
				}
			}
		}()

		// Keep replaying the trace until every swap has landed, so swaps are
		// guaranteed to interleave with live classification.
		for pass := 0; pass == 0 || !swapsDone.Load(); pass++ {
			classifyChunks(t, svc, trace, 64, checkAgainst(t, fmt.Sprint("mid-swap pass ", pass), ref))
		}
		wg.Wait()
		if updaterErr != nil {
			t.Fatal(updaterErr)
		}
		c := svc.Counters()
		if c.Swaps < wantSwaps {
			t.Fatalf("swaps = %d, want >= %d", c.Swaps, wantSwaps)
		}
		if c.FailedSwaps != 0 {
			t.Fatalf("failed swaps = %d", c.FailedSwaps)
		}
		if c.SwapLatencyMax == 0 || c.SwapLatencyMean == 0 {
			t.Fatalf("swap latency not recorded: %+v", c)
		}
	})
}

// TestMutatingChurnBatchAtomicity locks in the per-batch consistency
// guarantee: under semantics-changing churn, every completed batch must
// match exactly one recorded ruleset version end to end — a mixed batch
// would prove the swap is not atomic with respect to readers.
func TestMutatingChurnBatchAtomicity(t *testing.T) {
	const swaps = 30
	rs := prefixSet(t, 48, 7)
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 1500, MatchFraction: 0.9, Seed: 8})
	forEachShape(t, func(t *testing.T, cfg Config) {
		cfg.QueueDepth, cfg.VerifyPackets, cfg.Seed = 4, 64, 9
		svc, err := New(rs.Clone(), strideBuild, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer mustClose(t, svc)

		// versions records every ruleset that has been (or is about to be)
		// installed, appended before the corresponding swap commits.
		var (
			verMu    sync.Mutex
			versions = []*ruleset.RuleSet{rs}
		)
		var swapsDone atomic.Bool
		var updaterErr error
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer swapsDone.Store(true)
			for n := 0; n < swaps; n++ {
				cur := svc.RuleSet()
				ops, err := update.GenerateOps(cur, 4, int64(100+n))
				if err != nil {
					updaterErr = err
					return
				}
				next, err := update.ApplyToRuleSet(cur, ops)
				if err != nil {
					updaterErr = err
					return
				}
				verMu.Lock()
				versions = append(versions, next)
				verMu.Unlock()
				if err := svc.ApplyOps(ops); err != nil {
					updaterErr = err
					return
				}
			}
		}()

		checkBatch := func(_ int, hdrs []packet.Header, got []int) {
			verMu.Lock()
			vs := append([]*ruleset.RuleSet(nil), versions...)
			verMu.Unlock()
			for _, v := range vs {
				ok := true
				for i, h := range hdrs {
					if v.FirstMatch(h) != got[i] {
						ok = false
						break
					}
				}
				if ok {
					return
				}
			}
			t.Fatalf("batch matches no single ruleset version across %d versions", len(vs))
		}
		for pass := 0; pass == 0 || !swapsDone.Load(); pass++ {
			classifyChunks(t, svc, trace, 50, checkBatch)
		}
		wg.Wait()
		if updaterErr != nil {
			t.Fatal(updaterErr)
		}
		if got := svc.Counters().Swaps; got != swaps {
			t.Fatalf("swaps = %d, want %d", got, swaps)
		}
	})
}

// misclassifier is always wrong: -2 is outside the valid result domain.
type misclassifier struct{ core.Engine }

func (misclassifier) Classify(packet.Header) int { return -2 }

func TestFailedVerifySwapRollsBack(t *testing.T) {
	rs := prefixSet(t, 32, 11)
	ops, err := update.GenerateOps(rs, 4, 12)
	if err != nil {
		t.Fatal(err)
	}
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 300, MatchFraction: 0.8, Seed: 13})
	forEachShape(t, func(t *testing.T, cfg Config) {
		var builds atomic.Int64
		build := func(rs *ruleset.RuleSet) (core.Engine, error) {
			eng, err := strideBuild(rs)
			if err != nil {
				return nil, err
			}
			if builds.Add(1) > 1 {
				// Every rebuild after the initial one is broken: the shadow
				// engine must fail differential verification.
				return misclassifier{eng}, nil
			}
			return eng, nil
		}
		cfg.VerifyPackets = 128
		svc, err := New(rs.Clone(), build, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer mustClose(t, svc)
		before := svc.Engine()

		swapErr := svc.ApplyOps(ops)
		if swapErr == nil {
			t.Fatal("broken shadow engine was swapped in")
		}
		if !errors.Is(swapErr, ErrRolledBack) {
			t.Fatalf("verify failure not tagged ErrRolledBack: %v", swapErr)
		}
		if svc.Engine() != before {
			t.Fatal("engine changed despite failed verification")
		}
		// The rolled-back service still classifies with pre-update semantics.
		classifyChunks(t, svc, trace, len(trace), checkAgainst(t, "post-rollback", core.NewLinear(rs)))
		c := svc.Counters()
		if c.FailedSwaps != 1 || c.Swaps != 0 {
			t.Fatalf("counters = %+v, want 1 failed swap and 0 swaps", c)
		}
		// A verify rollback is a rollback, not a malformed request.
		if c.InvalidOps != 0 {
			t.Fatalf("invalid ops = %d, want 0", c.InvalidOps)
		}
	})
}

func TestFailedBuildSwapRollsBack(t *testing.T) {
	rs := prefixSet(t, 16, 14)
	forEachShape(t, func(t *testing.T, cfg Config) {
		var builds atomic.Int64
		build := func(rs *ruleset.RuleSet) (core.Engine, error) {
			if builds.Add(1) > 1 {
				return nil, errors.New("synthetic build failure")
			}
			return linearBuild(rs)
		}
		svc, err := New(rs.Clone(), build, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer mustClose(t, svc)
		before := svc.Engine()
		err = svc.Reload(prefixSet(t, 16, 15))
		if err == nil {
			t.Fatal("failed build swapped in")
		}
		if !errors.Is(err, ErrRolledBack) {
			t.Fatalf("build failure not tagged ErrRolledBack: %v", err)
		}
		if svc.Engine() != before {
			t.Fatal("engine changed despite failed build")
		}
		c := svc.Counters()
		if c.FailedSwaps != 1 || c.Swaps != 0 || c.InvalidOps != 0 {
			t.Fatalf("counters = %+v, want exactly 1 failed swap", c)
		}
	})
}

// Op-validation failures never reach the shadow build, so they must land in
// InvalidOps, not FailedSwaps — the distinction that keeps "the updater sent
// garbage" separate from "a well-formed update was rolled back".
func TestInvalidOpsAreNotFailedSwaps(t *testing.T) {
	rs := prefixSet(t, 16, 24)
	svc, err := New(rs.Clone(), linearBuild, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, svc)
	if err := svc.ApplyOps([]update.Op{{Index: rs.Len() + 5}}); err == nil {
		t.Fatal("out-of-range op accepted")
	} else if errors.Is(err, ErrRolledBack) {
		t.Fatalf("op-validation error tagged as rollback: %v", err)
	}
	if err := svc.Reload(nil); err == nil {
		t.Fatal("nil reload accepted")
	}
	c := svc.Counters()
	if c.InvalidOps != 2 {
		t.Fatalf("invalid ops = %d, want 2", c.InvalidOps)
	}
	if c.FailedSwaps != 0 {
		t.Fatalf("failed swaps = %d, want 0 (no build/verify was attempted)", c.FailedSwaps)
	}
}

func TestReloadSwapsFullRuleset(t *testing.T) {
	rsA := prefixSet(t, 32, 16)
	rsB := prefixSet(t, 48, 17)
	traceA := ruleset.GenerateTrace(rsA, ruleset.TraceConfig{Count: 300, MatchFraction: 0.8, Seed: 18})
	traceB := ruleset.GenerateTrace(rsB, ruleset.TraceConfig{Count: 300, MatchFraction: 0.8, Seed: 18})
	forEachShape(t, func(t *testing.T, cfg Config) {
		cfg.VerifyPackets = 64
		svc, err := New(rsA.Clone(), strideBuild, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer mustClose(t, svc)
		// Warm any caches on A with the very headers probed after the reload.
		classifyChunks(t, svc, traceB, len(traceB), checkAgainst(t, "pre-reload", core.NewLinear(rsA)))
		classifyChunks(t, svc, traceA, len(traceA), checkAgainst(t, "pre-reload", core.NewLinear(rsA)))
		if err := svc.Reload(rsB); err != nil {
			t.Fatal(err)
		}
		if got := svc.Engine().NumRules(); got != rsB.Len() {
			t.Fatalf("NumRules = %d, want %d", got, rsB.Len())
		}
		classifyChunks(t, svc, traceB, len(traceB), checkAgainst(t, "post-reload", core.NewLinear(rsB)))
		if err := svc.Reload(&ruleset.RuleSet{}); err == nil {
			t.Fatal("empty reload accepted")
		}
	})
}

// blockingEngine parks every Classify call until released, reporting each
// entry so tests can wait for the worker to actually pick a batch up.
type blockingEngine struct {
	core.Engine
	entered chan struct{}
	release chan struct{}
}

func (b blockingEngine) Classify(h packet.Header) int {
	select {
	case b.entered <- struct{}{}:
	default:
	}
	<-b.release
	return b.Engine.Classify(h)
}

// blockingBuild returns a BuildFunc whose engines park in Classify until
// release is closed, plus the channel that reports a worker entering one.
func blockingBuild(workers int) (build BuildFunc, entered, release chan struct{}) {
	entered = make(chan struct{}, workers)
	release = make(chan struct{})
	return func(rs *ruleset.RuleSet) (core.Engine, error) {
		return blockingEngine{core.NewLinear(rs), entered, release}, nil
	}, entered, release
}

// headerForWorker returns a header the dispatcher steers to worker w.
func headerForWorker(t *testing.T, w, workers int) packet.Header {
	t.Helper()
	for port := 0; port < 1<<16; port++ {
		h := packet.Header{Proto: 6, SP: uint16(port)}
		if packet.SteerWorker(h.Key().Hash(), workers) == w {
			return h
		}
	}
	t.Fatalf("no header steers to worker %d of %d", w, workers)
	return packet.Header{}
}

// Backpressure is blocking, the one policy: with the lone worker parked and
// its one queue slot taken, further Submits wait in the send instead of
// failing, every batch still completes once the engine is released, and
// Close drains what is in flight.
func TestBackpressureBlocksWhenFull(t *testing.T) {
	const submitters = 8
	build, entered, release := blockingBuild(1)
	svc, err := New(prefixSet(t, 8, 19), build, Config{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := []packet.Header{{Proto: 6}}
	var returned atomic.Int64
	pending := make(chan *Pending, submitters)
	errs := make(chan error, submitters)
	for i := 0; i < submitters; i++ {
		go func() {
			p, err := svc.Submit(h)
			returned.Add(1)
			pending <- p
			errs <- err
		}()
	}
	<-entered
	// One task is with the parked worker; the other seven are counted, one
	// buffered and six blocked in their send.
	for deadline := time.Now().Add(5 * time.Second); svc.queued.Load() != submitters-1; {
		if time.Now().After(deadline) {
			t.Fatalf("queued = %d, want %d submitters waiting on the parked worker", svc.queued.Load(), submitters-1)
		}
		time.Sleep(time.Millisecond)
	}
	if got := returned.Load(); got > 2 {
		t.Fatalf("%d Submits returned past a parked worker and a 1-slot queue, want <= 2", got)
	}
	close(release)
	var all []*Pending
	for i := 0; i < submitters; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("blocked Submit failed instead of waiting: %v", err)
		}
		all = append(all, <-pending)
	}
	mustClose(t, svc)
	for i, p := range all {
		select {
		case <-p.done:
		default:
			t.Fatalf("batch %d dropped: Close returned before it completed", i)
		}
	}
	c := svc.Counters()
	if c.Batches != submitters || c.ClosedSubmits != 0 {
		t.Fatalf("counters = %+v, want %d batches and no refused submit", c, submitters)
	}
	// Each submitter has at most one task counted at a time.
	if c.QueueHighWater < submitters-1 || c.QueueHighWater > submitters {
		t.Fatalf("queue high-water = %d, want %d..%d", c.QueueHighWater, submitters-1, submitters)
	}
}

// TestQueueDepthIsExactBound pins the documented capacity contract:
// QueueDepth bounds the TOTAL buffered sub-batches across all shards. With
// Workers=8 and QueueDepth=10 the old per-shard ceil rounding allocated
// 8×2=16 slots; the remainder must instead be spread so exactly 10 buffer
// beyond the ones workers are already draining, and the next one blocks.
func TestQueueDepthIsExactBound(t *testing.T) {
	const workers, queueDepth = 8, 10
	build, entered, release := blockingBuild(workers)
	svc, err := New(prefixSet(t, 8, 25), build, Config{Workers: workers, QueueDepth: queueDepth})
	if err != nil {
		t.Fatal(err)
	}
	submit := func(w int) *Pending {
		p, err := svc.Submit([]packet.Header{headerForWorker(t, w, workers)})
		if err != nil {
			t.Fatalf("submit to worker %d: %v", w, err)
		}
		return p
	}
	// Park every worker on a batch; those batches are dequeued, so they
	// don't occupy queue capacity.
	var pending []*Pending
	for w := 0; w < workers; w++ {
		pending = append(pending, submit(w))
	}
	for w := 0; w < workers; w++ {
		<-entered
	}
	// Now every accepted submission buffers in its shard: fill each to its
	// capacity without blocking.
	buffered := 0
	for w, shard := range svc.shards {
		for i := 0; i < cap(shard); i++ {
			pending = append(pending, submit(w))
			buffered++
		}
	}
	if buffered != queueDepth {
		t.Fatalf("buffered %d batches beyond in-flight, want exactly %d", buffered, queueDepth)
	}
	// One more to a full shard must wait for the worker.
	h0 := []packet.Header{headerForWorker(t, 0, workers)}
	type submitted struct {
		p   *Pending
		err error
	}
	over := make(chan submitted)
	go func() {
		p, err := svc.Submit(h0)
		over <- submitted{p, err}
	}()
	select {
	case <-over:
		t.Fatal("Submit to a full shard returned while its worker was parked")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	last := <-over
	if last.err != nil {
		t.Fatalf("blocked submit: %v", last.err)
	}
	pending = append(pending, last.p)
	for _, p := range pending {
		if _, err := p.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	mustClose(t, svc)
}

// TestQueueDepthGaugeSettles is the regression test for the depth gauge:
// the count used to be published after the send, so a worker's decrement
// could land first (gauge -1) and two unordered publishes could leave a
// non-zero depth on a drained service.
func TestQueueDepthGaugeSettles(t *testing.T) {
	const workers, submitters = 4, 8
	// One slot per (submitter, worker) pair: no send ever blocks, so the
	// count can never exceed the configured depth.
	const queueDepth = workers * submitters
	rs := prefixSet(t, 32, 26)
	svc, err := New(rs.Clone(), strideBuild, Config{Workers: workers, QueueDepth: queueDepth})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, svc)
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 512, MatchFraction: 0.8, Seed: 27})
	// Sampled by each worker right after it uncounts a task — the moment
	// the old ordering exposed a negative count.
	var negative atomic.Int64
	svc.testObserveSteer = func(int, []packet.Header) {
		if v := svc.depth.Value(); v < 0 {
			negative.Store(v)
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < submitters; c++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				lo := (off*61 + i*4) % (len(trace) - 4)
				if _, err := svc.Classify(context.Background(), trace[lo:lo+4]); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if v := negative.Load(); v != 0 {
		t.Fatalf("queue_depth gauge read %d mid-run", v)
	}
	g := svc.Registry().Snapshot().Gauges["serve.queue_depth"]
	if g.Value != 0 {
		t.Fatalf("queue_depth = %d on a drained service, want 0", g.Value)
	}
	if g.Max < 1 || g.Max > queueDepth {
		t.Fatalf("queue high-water = %d, want 1..%d", g.Max, queueDepth)
	}
}

func TestCloseDrainsInFlightAndRejectsAfter(t *testing.T) {
	rs := prefixSet(t, 8, 20)
	forEachShape(t, func(t *testing.T, cfg Config) {
		build, _, release := blockingBuild(cfg.Workers)
		// Room for the test's batches on one shard: they all carry the same
		// flow, so they queue behind one parked worker.
		cfg.QueueDepth = 4 * cfg.Workers
		svc, err := New(rs, build, cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := []packet.Header{{Proto: 17}}
		var pending []*Pending
		for i := 0; i < 3; i++ {
			p, err := svc.Submit(h)
			if err != nil {
				t.Fatal(err)
			}
			pending = append(pending, p)
		}
		// A bounded Close deadline expires while the worker is parked.
		short, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		defer cancel()
		if err := svc.Close(short); err == nil {
			t.Fatal("close returned before drain completed")
		}
		if _, err := svc.Submit(h); err != ErrClosed {
			t.Fatalf("submit after close: err = %v, want ErrClosed", err)
		}
		if err := svc.ClassifySteered(h, make([]int, 1)); err != ErrClosed {
			t.Fatalf("ClassifySteered after close: err = %v, want ErrClosed", err)
		}
		if c := svc.Counters(); c.ClosedSubmits != 2 {
			t.Fatalf("closed submits = %d, want 2", c.ClosedSubmits)
		}
		// Releasing the engine lets the graceful drain finish: every batch
		// submitted before Close still completes.
		close(release)
		if err := svc.Close(context.Background()); err != nil {
			t.Fatalf("second close: %v", err)
		}
		for i, p := range pending {
			select {
			case <-p.done:
			default:
				t.Fatalf("batch %d dropped during shutdown", i)
			}
			if _, err := p.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	})
}

func TestWaitHonorsContext(t *testing.T) {
	rs := prefixSet(t, 8, 21)
	forEachShape(t, func(t *testing.T, cfg Config) {
		build, _, release := blockingBuild(cfg.Workers)
		svc, err := New(rs, build, cfg)
		if err != nil {
			t.Fatal(err)
		}
		p, err := svc.Submit([]packet.Header{{Proto: 6}})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		defer cancel()
		if _, err := p.Wait(ctx); err != context.DeadlineExceeded {
			t.Fatalf("wait err = %v, want deadline exceeded", err)
		}
		close(release)
		mustClose(t, svc)
	})
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, linearBuild, Config{}); err == nil {
		t.Fatal("nil ruleset accepted")
	}
	if _, err := New(prefixSet(t, 8, 22), nil, Config{}); err == nil {
		t.Fatal("nil build accepted")
	}
	broken := func(*ruleset.RuleSet) (core.Engine, error) { return nil, errors.New("nope") }
	if _, err := New(prefixSet(t, 8, 23), broken, Config{}); err == nil {
		t.Fatal("failed initial build accepted")
	}
}

func BenchmarkServiceClassify(b *testing.B) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 512, Profile: ruleset.PrefixOnly, Seed: 1, DefaultRule: true})
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 4096, MatchFraction: 0.8, Seed: 2})
	svc, err := New(rs, strideBuild, Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close(context.Background())
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lo := 0; lo < len(trace); lo += 256 {
			if _, err := svc.Classify(ctx, trace[lo:min(lo+256, len(trace))]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.SetBytes(int64(len(trace)) * packet.MinPacketBits / 8)
}

func BenchmarkHotSwap(b *testing.B) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 256, Profile: ruleset.PrefixOnly, Seed: 3, DefaultRule: true})
	svc, err := New(rs.Clone(), strideBuild, Config{VerifyPackets: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close(context.Background())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur := svc.RuleSet()
		ops := []update.Op{{Index: i % cur.Len(), Rule: cur.Rules[i%cur.Len()]}}
		if err := svc.ApplyOps(ops); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCachedServiceHotSwapInvalidates is the serving-layer half of the
// generation invariant: once ApplyOps returns, every classification —
// cache hit or miss — must reflect the new ruleset, with no flush between
// the swap and the next lookup.
func TestCachedServiceHotSwapInvalidates(t *testing.T) {
	rs := prefixSet(t, 64, 33)
	pop := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 300, MatchFraction: 0.9, Seed: 35})
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			svc, err := New(rs.Clone(), strideBuild, Config{Workers: workers, QueueDepth: 4, VerifyPackets: 64, CacheEntries: 1 << 12, Seed: 34})
			if err != nil {
				t.Fatal(err)
			}
			defer mustClose(t, svc)

			cur := rs.Clone()
			ref := core.NewLinear(cur)
			check := func(tag string) {
				classifyChunks(t, svc, pop, 64, checkAgainst(t, tag, ref))
			}
			check("pre-swap cold")
			check("pre-swap warm") // now largely cache hits

			changed := false
			for swap := 0; swap < 10; swap++ {
				ops, err := update.GenerateOps(cur, 16, int64(40+swap))
				if err != nil {
					t.Fatal(err)
				}
				next, err := update.ApplyToRuleSet(cur, ops)
				if err != nil {
					t.Fatal(err)
				}
				if err := svc.ApplyOps(ops); err != nil {
					t.Fatal(err)
				}
				nextRef := core.NewLinear(next)
				for _, h := range pop {
					if ref.Classify(h) != nextRef.Classify(h) {
						changed = true
					}
				}
				cur, ref = next, nextRef
				check("post-swap")
				check("post-swap warm")
			}
			if !changed {
				t.Fatal("update stream never changed a decision on the population; staleness would be invisible")
			}
			stats, _ := svc.CacheStats()
			if stats.StaleDrops == 0 {
				t.Fatalf("hot-swaps over a warm cache produced no stale drops: %+v", stats)
			}
		})
	}
}
