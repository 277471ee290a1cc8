// Package serve is the concurrent classification service: the software
// analogue of the paper's wire-speed engine serving traffic while the
// ruleset is reconfigured underneath it (Section IV-C's dynamic
// reconfigurability, made operational).
//
// The design separates the two concerns the hardware gets for free:
//
//   - Readers never block on updates. The live engine (with its cache
//     generation) sits behind one atomic pointer; the submitter loads it
//     once per batch and every worker classifies its share against that
//     pin, so a batch is always classified by exactly one internally
//     consistent engine version (the software equivalent of an atomic
//     table swap between packets).
//   - Updates are shadow-built. An updater applies update.Ops to a clone
//     of the ruleset, constructs a fresh engine from the clone,
//     differentially verifies it against core.NewLinear on a directed
//     trace, and only then swaps the pointer. A failed build or failed
//     verification leaves the old engine serving — rollback is the
//     default, not a recovery action.
//
// There is one dispatch path (steer.go): Submit and ClassifySteered hash
// every packet's flow key and scatter the batch so each worker receives
// exactly the flows it owns, RSS-style. Workers: 1 is the degenerate case
// of the same path, not a second one. With CacheEntries > 0 every worker
// fronts the engine with its own single-writer flowcache.Private. The
// per-worker queues are bounded and backpressure is blocking: a sub-batch
// cannot spill to another worker without breaking flow affinity, so a full
// target queue delays the submitter instead of dropping the batch. A small
// ClassifySteered share whose worker is idle skips the queue: the
// submitter runs it on that worker's state, under the worker's claim. A
// worker that has just run a larger share polls its shard for one bounded
// spell before it parks, so a closed-loop client's next large share is a
// buffered put, not a wake-up; an idle service still parks every worker.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pktclass/internal/core"
	"pktclass/internal/flowcache"
	"pktclass/internal/metrics"
	"pktclass/internal/obsv"
	"pktclass/internal/obsv/flowstats"
	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
	"pktclass/internal/update"
)

// BuildFunc constructs a classification engine over a ruleset. The service
// calls it once at startup and once per hot-swap (on the shadow clone).
type BuildFunc func(*ruleset.RuleSet) (core.Engine, error)

var (
	// ErrClosed reports a submission after Close began.
	ErrClosed = errors.New("serve: service closed")
	// ErrRolledBack tags swap failures where a well-formed update reached
	// the shadow build/verify stage and was rejected there — the previous
	// engine kept serving. errors.Is(err, ErrRolledBack) distinguishes this
	// legitimate-outcome rollback from op-validation errors, which never
	// start a swap attempt.
	ErrRolledBack = errors.New("serve: swap rolled back")
)

// Config parameterizes a Service.
type Config struct {
	// Workers is the number of classification goroutines (0 selects
	// GOMAXPROCS).
	Workers int
	// QueueDepth bounds the total number of buffered sub-batches across all
	// worker shards (0 selects 4 per worker). A submitter whose target
	// shard is full blocks until the worker drains a slot. Shares that a
	// ClassifySteered caller runs inline (small, idle worker) are never
	// queued and take no slot.
	QueueDepth int
	// VerifyPackets is the directed-trace length used to differentially
	// verify every candidate engine against core.NewLinear before it is
	// swapped in (0 selects 256; negative disables swap verification).
	VerifyPackets int
	// CacheEntries enables the exact-match flow cache in front of the
	// engine with this total capacity (0 disables caching): one
	// single-writer flowcache.Private per worker, capacity split evenly.
	// The caches survive hot-swaps: the service allocates one generation
	// per engine build, so entries written by retired builds become lazy
	// misses without a flush and without blocking readers.
	CacheEntries int
	// Deprecated: Steer is inert. Every service steers; the field remains
	// only so existing keyed literals keep compiling.
	Steer bool
	// Incremental routes ApplyOps through the engines' O(delta) update
	// primitives (StrideBV stage-memory column flips, TCAM per-row SRL16E
	// shift-in writes) instead of a full shadow rebuild, whenever the delta
	// is non-structural and the engine supports it. The updated engine is
	// verified with a scoped sweep (touched rules + spot checks) before the
	// atomic pointer swap; any delta failure or verify mismatch falls back
	// to the shadow-rebuild path, so correctness never depends on this flag.
	Incremental bool
	// SpotCheckPackets is the number of sampled headers added to the scoped
	// incremental verify beyond the per-touched-rule directed probes
	// (0 selects 16; negative disables the spot checks).
	SpotCheckPackets int
	// TopFlows sizes the per-worker top-K table of the heavy-hitter
	// detector of an observed service (0 selects 16; negative disables
	// detection). Each worker feeds its own sketch stripe after
	// classifying its sub-batch, so detection inherits the dispatch path's
	// single-writer discipline and costs zero allocations per batch.
	TopFlows int
	// RebalanceThreshold arms the steer rebalance-candidate journal event:
	// when top-K flow share x imbalance index (both in [0,W]) crosses this
	// value, ImbalanceIndex appends one EventRebalanceCandidate and
	// re-arms only after the score falls back below 80% of the threshold.
	// 0 selects 2; negative disables the check.
	RebalanceThreshold float64
	// Seed makes swap-verification traces deterministic.
	Seed int64
	// Obs wires the observability layer: the service registers its counters
	// and gauges in Obs.Reg (so /metrics and Counters read the same
	// instruments), records submit-wait / classify-batch / swap-phase
	// latencies into Obs's histograms, routes the flow cache's probe phase
	// into Obs.CacheProbe, and samples packets through Obs.Tracer. Nil runs
	// the service unobserved — the worker hot path carries one branch.
	Obs *obsv.Obs
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.VerifyPackets == 0 {
		c.VerifyPackets = 256
	}
	if c.SpotCheckPackets == 0 {
		c.SpotCheckPackets = 16
	}
	if c.TopFlows == 0 {
		c.TopFlows = 16
	}
	if c.RebalanceThreshold == 0 {
		c.RebalanceThreshold = 2
	}
	return c
}

// Pending is an in-flight submitted batch.
type Pending struct {
	results []int
	done    chan struct{}
	// enq is the accept timestamp, stamped only when the service is
	// observed: the worker turns it into the submit-wait histogram sample.
	enq time.Time
}

// Wait blocks until the batch is classified or the context ends. The
// returned slice has one rule index (or -1) per submitted header.
func (p *Pending) Wait(ctx context.Context) ([]int, error) {
	select {
	case <-p.done:
		return p.results, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Counters is a point-in-time snapshot of the service's traffic and swap
// statistics. Each counter records exactly one outcome: lifecycle
// (ClosedSubmits), malformed updates (InvalidOps) and shadow-stage
// rollbacks (FailedSwaps) are all distinct. Backpressure is blocking, so
// it shows as QueueHighWater and submit-wait latency, never as a drop.
type Counters struct {
	Classified     int64 // packets classified
	Batches        int64 // batches completed
	ClosedSubmits  int64 // batches refused with ErrClosed
	QueueHighWater int64 // max sub-batches queued (buffered or blocked in send) at once
	Swaps          int64 // engine hot-swaps committed (rebuild path)
	FailedSwaps    int64 // swaps rolled back by shadow build or verify failure
	InvalidOps     int64 // update requests rejected before any build/verify was attempted
	// IncrementalSwaps counts O(delta) engine updates committed without a
	// rebuild; IncrementalRollbacks counts incremental attempts whose scoped
	// verify failed (the update then retried through the rebuild path);
	// IncrementalFallbacks counts deltas the engine could not take
	// incrementally (structural change or no delta primitive) that went
	// straight to the rebuild path.
	IncrementalSwaps     int64
	IncrementalRollbacks int64
	IncrementalFallbacks int64
	// SwapLatencyMean is serve.swap_ns over every committed swap, rebuild
	// and incremental; SwapLatencyMax is serve.swap_last_ns's high-water.
	SwapLatencyMean time.Duration
	SwapLatencyMax  time.Duration
	// CacheEnabled reports whether the flow cache was configured; Cache is
	// its counter snapshot (zero otherwise).
	CacheEnabled bool
	Cache        flowcache.Stats
}

// Table renders the snapshot through the metrics table model.
func (c Counters) Table() *metrics.Table {
	t := &metrics.Table{Title: "serve counters", Headers: []string{"counter", "value"}}
	t.AddRow("packets classified", fmt.Sprint(c.Classified))
	t.AddRow("batches", fmt.Sprint(c.Batches))
	t.AddRow("submits after close", fmt.Sprint(c.ClosedSubmits))
	t.AddRow("queue high-water", fmt.Sprint(c.QueueHighWater))
	t.AddRow("swaps", fmt.Sprint(c.Swaps))
	t.AddRow("failed swaps", fmt.Sprint(c.FailedSwaps))
	t.AddRow("invalid update ops", fmt.Sprint(c.InvalidOps))
	t.AddRow("incremental swaps", fmt.Sprint(c.IncrementalSwaps))
	t.AddRow("incremental rollbacks", fmt.Sprint(c.IncrementalRollbacks))
	t.AddRow("incremental fallbacks", fmt.Sprint(c.IncrementalFallbacks))
	t.AddRow("swap latency mean", c.SwapLatencyMean.String())
	t.AddRow("swap latency max", c.SwapLatencyMax.String())
	if c.CacheEnabled {
		t.AddRow("cache hits", fmt.Sprint(c.Cache.Hits))
		t.AddRow("cache misses", fmt.Sprint(c.Cache.Misses))
		t.AddRow("cache hit rate", fmt.Sprintf("%.1f%%", 100*c.Cache.HitRate()))
		t.AddRow("cache evictions", fmt.Sprint(c.Cache.Evictions))
		t.AddRow("cache stale drops", fmt.Sprint(c.Cache.StaleDrops))
	}
	return t
}

// live is one published engine build: the classifier plus the flow-cache
// generation it was built under. dispatch loads the pair with one pointer
// load, so an engine and its generation can never be observed torn — the
// property the per-worker private caches depend on (a batch probing
// generation g always classifies misses on the build g names).
type live struct {
	eng core.Engine
	// gen is the build's cache generation; it tags every private-cache
	// entry the build writes.
	gen uint64
}

// Service classifies submitted batches on worker goroutines against a
// hot-swappable engine. All methods are safe for concurrent use.
type Service struct {
	cfg   Config
	build BuildFunc

	// engine is the live classifier (with its cache generation). dispatch
	// Loads it once per batch; updaters Store a fully built and verified
	// replacement.
	//
	//pclass:pinned
	engine atomic.Pointer[live]

	// gens allocates one never-reused cache generation per engine build.
	gens atomic.Uint64

	// mu serializes updaters and guards rs, the ruleset the live engine
	// was built from. Classification never takes it.
	mu       sync.Mutex
	rs       *ruleset.RuleSet
	swapSeed int64

	// lifecycle guards the queues against submit-after-close: submitters
	// hold it shared, Close holds it exclusively while closing the shards.
	lifecycle sync.RWMutex
	closed    bool
	shards    []chan *steerTask
	queued    atomic.Int64
	wg        sync.WaitGroup

	// workers holds the per-worker state: the private flow cache and the
	// pre-bound miss fallback. Sized len(shards).
	workers []*worker
	// steerPool recycles scatter scratch (see steer.go).
	steerPool sync.Pool

	// The counters live in reg — the Obs registry when observability is
	// wired, a private registry otherwise — so Counters(), /metrics and
	// /statusz all read the same instruments. The pointers are bound once
	// in New; the hot path never goes through the registry's lock.
	reg           *obsv.Registry
	classified    *obsv.Counter
	batches       *obsv.Counter
	closedSubmits *obsv.Counter
	depth         *obsv.Gauge
	swaps         *obsv.Counter
	failedSwaps   *obsv.Counter
	invalidOps    *obsv.Counter
	// swapNanos sums the commit latency of every committed swap, rebuild
	// or incremental; swapLast holds the latest one, its high-water mark
	// the worst. Together they are the always-on swap latency summary,
	// which costs no Histogram on an unobserved service.
	swapNanos *obsv.Counter
	swapLast  *obsv.Gauge

	incrementalSwaps     *obsv.Counter
	incrementalRollbacks *obsv.Counter
	incrementalFallbacks *obsv.Counter

	// handoffsWarm counts tasks a worker received during its warm spell,
	// handoffsCold tasks it received from the blocking receive.
	handoffsWarm *obsv.Counter
	handoffsCold *obsv.Counter

	// obs is Config.Obs; nil disables every observability branch.
	obs *obsv.Obs

	// det is the heavy-hitter detector (nil unless observed and
	// TopFlows >= 0). The holder of each worker's claim observes that
	// worker's stripe after classifying, so the detector never sees
	// concurrent writers.
	det *flowstats.Detector
	// journal is Obs.Journal (nil unobserved): the control-plane event
	// ring every swap/rollback/fallback/retirement is appended to.
	// Appends go through the nil-safe methods, so no call site branches.
	journal *obsv.Journal
	// load turns periodic WorkerClassified samples into the sliding-window
	// imbalance index; imbalance mirrors the latest index (in 1/1000ths)
	// into the registry so /metrics and Counters read the same number.
	load      *flowstats.LoadTracker
	imbalance *obsv.Gauge
	// rebalanceHot is the hysteresis latch of the rebalance-candidate
	// check: set when the score crosses the threshold (one journal event
	// per excursion), cleared when it decays below 80% of it.
	rebalanceHot atomic.Bool

	// testObserveSteer, when set by tests before any Submit, is called by
	// the holder of a worker's claim with the worker's id and the
	// sub-batch it is about to classify — the probe the flow-affinity and
	// flow-order proofs use to see which worker touched which flow, and
	// when. Nil in production; the hot path carries one nil check.
	testObserveSteer func(worker int, hdrs []packet.Header)
}

// New builds the initial engine from the ruleset and starts the worker
// pool. The caller owns rs until New returns and must not mutate it after.
func New(rs *ruleset.RuleSet, build BuildFunc, cfg Config) (*Service, error) {
	if rs == nil || rs.Len() == 0 {
		return nil, fmt.Errorf("serve: empty ruleset")
	}
	if build == nil {
		return nil, fmt.Errorf("serve: nil build func")
	}
	cfg = cfg.withDefaults()
	eng, err := build(rs)
	if err != nil {
		return nil, fmt.Errorf("serve: initial build: %w", err)
	}
	s := &Service{
		cfg:      cfg,
		build:    build,
		rs:       rs,
		swapSeed: cfg.Seed,
		shards:   make([]chan *steerTask, cfg.Workers),
		obs:      cfg.Obs,
	}
	s.reg = new(obsv.Registry)
	if cfg.Obs != nil {
		s.reg = cfg.Obs.Reg
	}
	s.classified = s.reg.Counter("serve.classified")
	s.batches = s.reg.Counter("serve.batches")
	s.closedSubmits = s.reg.Counter("serve.closed_submits")
	s.depth = s.reg.Gauge("serve.queue_depth")
	s.swaps = s.reg.Counter("serve.swaps")
	s.failedSwaps = s.reg.Counter("serve.failed_swaps")
	s.invalidOps = s.reg.Counter("serve.invalid_ops")
	s.swapNanos = s.reg.Counter("serve.swap_ns")
	s.swapLast = s.reg.Gauge("serve.swap_last_ns")
	s.incrementalSwaps = s.reg.Counter("serve.incremental_swaps")
	s.incrementalRollbacks = s.reg.Counter("serve.incremental_rollbacks")
	s.incrementalFallbacks = s.reg.Counter("serve.incremental_fallbacks")
	s.handoffsWarm = s.reg.Counter("serve.handoffs_warm")
	s.handoffsCold = s.reg.Counter("serve.handoffs_cold")
	s.load = flowstats.NewLoadTracker(0)
	s.imbalance = s.reg.Gauge("serve.imbalance_milli")
	if cfg.Obs != nil {
		s.journal = cfg.Obs.Journal
		if cfg.TopFlows > 0 {
			s.det = flowstats.NewDetector(cfg.Workers, cfg.TopFlows, 0)
		}
	}
	gen := s.gens.Add(1)
	s.engine.Store(&live{eng: eng, gen: gen})
	// The initial build is a swap like any other to the journal: an
	// observed service's /eventz always opens with its first commit.
	s.journal.Append(obsv.EventSwapCommitted, gen, int64(rs.Len()), 0, 0)
	// Distribute QueueDepth across the shards so the total buffered
	// capacity equals QueueDepth exactly: per-shard ceil rounding would
	// exceed the documented bound whenever the depth doesn't divide evenly
	// (Workers=8, QueueDepth=10 used to buffer 16). The first
	// QueueDepth%Workers shards take the remainder; a zero-capacity shard
	// still accepts work by direct handoff to its idle worker.
	base, rem := cfg.QueueDepth/cfg.Workers, cfg.QueueDepth%cfg.Workers
	s.workers = make([]*worker, cfg.Workers)
	for i := range s.shards {
		depth := base
		if i < rem {
			depth++
		}
		s.shards[i] = make(chan *steerTask, depth)
		w := &worker{s: s, id: i}
		if cfg.CacheEntries > 0 {
			// Capacity split evenly: the steering hash spreads flows
			// uniformly, so per-worker slices see ~1/W of the flow space.
			// Clamped to ≥1 — a CacheEntries below the worker count must
			// stay a tiny cache, not trip NewPrivate's per-worker default.
			per := cfg.CacheEntries / cfg.Workers
			if per < 1 {
				per = 1
			}
			w.cache = flowcache.NewPrivate(per)
			if cfg.Obs != nil {
				w.cache.SetProbeHistogram(cfg.Obs.CacheProbe)
			}
		}
		w.missFn = func(hdrs []packet.Header, out []int) {
			core.ClassifyBatchInto(w.eng, hdrs, out)
		}
		s.workers[i] = w
		s.wg.Add(1)
		go w.run(s.shards[i])
	}
	return s, nil
}

// worker is one classification goroutine's private state. The private
// cache, the detector stripe, eng and the miss fallback are only ever
// touched by the holder of the worker's claim — the worker goroutine
// running a handed-off task, or a synchronous submitter running a small
// share inline; cache statistics are atomic so scrapes never race it.
// Between tasks the goroutine is parked in its shard's receive or, after
// a large share, polling the shard for one spell; it holds no claim in
// either.
type worker struct {
	s  *Service
	id int
	// claim makes its holder the single writer of this worker's state. The
	// worker goroutine holds it around each runSteered, never while it
	// waits for a task, so a worker in its spell is idle to tryClaim; a
	// submitter takes it only with tryClaim, and never across a blocking
	// operation.
	claim sync.Mutex
	// inflight counts tasks handed to this worker and not yet finished:
	// incremented before the send, decremented after runSteered. Zero
	// means nothing for this worker is queued or running, so a share run
	// inline cannot overtake an earlier batch of the same flow.
	inflight atomic.Int32
	// cache is the worker-private flow cache (nil when uncached).
	cache *flowcache.Private
	// eng is the batch-scoped engine target of missFn, set by the claim
	// holder before each private-cache batch call.
	eng core.Engine
	// missFn is the pre-bound cache-miss fallback, built once so the hot
	// path never constructs a closure.
	missFn func([]packet.Header, []int)
	// classified and batches count this worker's packets and completed
	// (sub-)batches, for the per-worker exposition gauges and the load/
	// imbalance telemetry.
	classified atomic.Int64
	batches    atomic.Int64
}

// spellPolls bounds the warm spell: how many times a worker that has just
// run a share of more than inlineShare packets polls its shard, yielding
// between polls, before it parks in a blocking receive. A closed-loop
// client sends its next batch about one scatter (≈5 µs) after its last one
// returned, so a worker that parks at once pays a futex wake on nearly
// every large share. On a 2-vCPU Xeon 200 polls last about 25 µs. In a
// sweep of 25–800 polls on cache_pressure, 25 kept about a quarter of the
// gain and 50–800 all of it within the noise: 200 sits on that plateau,
// and an idle worker still parks within tens of µs (EXPERIMENTS.md, "Warm
// hand-off").
const spellPolls = 200

// run drains one shard queue: each task is this worker's share of a
// batch, run under the worker's claim so that a submitter running a
// share inline and this goroutine are never both writing the worker's
// state. After a share of more than inlineShare packets the worker
// stays warm for one spell (see receive); after a small share, and at
// start-up, it parks at once.
//
//pclass:hotpath
func (w *worker) run(shard chan *steerTask) {
	defer w.s.wg.Done()
	warm := false
	// receive reports ok=false only once Close has closed the shard and
	// every task still queued in it has run: graceful shutdown completes
	// in-flight batches rather than dropping them.
	for {
		t, ok := w.receive(shard, warm)
		if !ok {
			return
		}
		// Read before runSteered: once the task finishes, its scratch may
		// already be gathering another batch.
		warm = len(t.hdrs) > inlineShare
		w.s.noteQueued(-1)
		w.claim.Lock()
		w.runSteered(t)
		w.claim.Unlock()
		w.inflight.Add(-1)
	}
}

// receive takes the next task from shard. With warm set it first polls
// the shard up to spellPolls times, yielding the processor between polls,
// so a share handed off while the worker is still warm costs a buffered
// put and no wake-up; a closed shard ends the spell at once. Then, or
// without warm, it parks in a blocking receive. Each task received counts
// once, in serve.handoffs_warm or serve.handoffs_cold.
//
//pclass:hotpath
func (w *worker) receive(shard chan *steerTask, warm bool) (*steerTask, bool) {
	if warm {
		for i := 0; i < spellPolls; i++ {
			select {
			case t, ok := <-shard:
				if ok {
					w.s.handoffsWarm.Inc()
				}
				return t, ok
			default:
			}
			runtime.Gosched()
		}
	}
	t, ok := <-shard
	if ok {
		w.s.handoffsCold.Inc()
	}
	return t, ok
}

// tryClaim takes w's claim for a synchronous submitter if w is idle:
// nothing handed to it is queued or running, and nobody holds the claim.
// It never blocks. An in-flight count of zero is what keeps per-flow
// FIFO: a task the worker has received but not yet started still counts,
// where the shard's length would already read zero.
//
//pclass:hotpath
func (w *worker) tryClaim() bool {
	return w.inflight.Load() == 0 && w.claim.TryLock()
}

// noteQueued moves the queued-task count by d and publishes it to the
// serve.queue_depth gauge. Submitters count a task before sending it and
// workers uncount it after receiving it, so the count is never negative;
// a share run inline is never sent, so it never shows in the gauge.
// Publishing repeats until the count read back equals the value just
// stored: whichever goroutine stores last has seen the latest count, so
// two racing publishers cannot leave a stale value behind and a drained
// service reads 0.
//
//pclass:hotpath
func (s *Service) noteQueued(d int64) {
	n := s.queued.Add(d)
	for {
		s.depth.Set(n)
		cur := s.queued.Load()
		if cur == n {
			return
		}
		n = cur
	}
}

// Submit scatters a batch to the flow-owning workers and returns without
// waiting for the results. A full target queue blocks the submitter (flow
// affinity forbids spilling to another worker); the only error is
// ErrClosed after Close.
func (s *Service) Submit(hdrs []packet.Header) (*Pending, error) {
	p := &Pending{
		results: make([]int, len(hdrs)),
		done:    make(chan struct{}),
	}
	if len(hdrs) == 0 {
		close(p.done)
		return p, nil
	}
	s.lifecycle.RLock()
	defer s.lifecycle.RUnlock()
	if s.closed {
		s.closedSubmits.Inc()
		return nil, ErrClosed
	}
	if s.obs != nil {
		p.enq = time.Now()
	}
	// Completion — closing p.done, counting the batch, releasing the
	// scratch — happens on the last worker to finish its task.
	s.dispatch(s.getSteerScratch(), hdrs, p.results, p)
	return p, nil
}

// Classify submits a batch and waits for its results.
func (s *Service) Classify(ctx context.Context, hdrs []packet.Header) ([]int, error) {
	p, err := s.Submit(hdrs)
	if err != nil {
		return nil, err
	}
	return p.Wait(ctx)
}

// Engine returns the engine currently serving traffic.
//
//pclass:pinned
func (s *Service) Engine() core.Engine { return s.engine.Load().eng }

// Generation returns the cache generation of the live build.
//
//pclass:pinned
func (s *Service) Generation() uint64 { return s.engine.Load().gen }

// RuleSet returns the ruleset the live engine was built from. The returned
// set is replaced, never mutated, by updates — callers may read it freely.
func (s *Service) RuleSet() *ruleset.RuleSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rs
}

// ApplyOps applies rule replacements to the live service. The default
// route is the shadow-swap path: clone the ruleset, apply the ops to the
// clone, build a fresh engine, verify it differentially against the linear
// reference, and atomically swap it in. With Config.Incremental set the
// ops first try the engine's O(delta) update primitive — scoped-verified,
// then published by the same atomic pointer store — and only structural
// deltas, unsupported engines, or a failed scoped verify fall back to the
// shadow rebuild. On any failure the previous engine keeps serving and the
// error reports why the swap was rolled back.
func (s *Service) ApplyOps(ops []update.Op) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	next, err := update.ApplyToRuleSet(s.rs, ops)
	if err != nil {
		// Op validation failed before any build or verify was attempted:
		// nothing was swapped, so nothing rolled back.
		s.invalidOps.Inc()
		return err
	}
	if next == s.rs {
		// Empty delta: ApplyToRuleSet returned the live ruleset itself, and
		// rebuilding an identical engine would be a spurious swap.
		return nil
	}
	if s.cfg.Incremental {
		switch err := s.applyIncrementalLocked(ops, next); {
		case err == nil:
			return nil
		case errors.Is(err, update.ErrDeltaUnsupported):
			s.incrementalFallbacks.Inc()
			s.journal.Append(obsv.EventDeltaFallback, s.gens.Load(), int64(len(ops)), 0, 0)
		default:
			// The delta applied but its scoped verify found a divergence:
			// the update is still taken, through the path whose full
			// differential verify decides independently.
			s.incrementalRollbacks.Inc()
			s.journal.Append(obsv.EventSwapRolledBack, s.gens.Load(), 2, 1, 0)
		}
	}
	return s.swapLocked(next)
}

// applyIncrementalLocked routes ops through the live engine's O(delta)
// update primitive: lower the ops to per-row deltas, derive the updated
// engine (copy-on-write — the live engine is never touched and keeps
// serving), scope-verify it on the touched rules plus sampled spot checks,
// and publish it under a fresh flow-cache generation with the same atomic
// pointer store as a full swap. Callers hold s.mu; any error
// leaves the service untouched and the caller decides whether to fall back
// to the shadow rebuild.
func (s *Service) applyIncrementalLocked(ops []update.Op, next *ruleset.RuleSet) error {
	start := time.Now()
	rules, entries, err := update.Deltas(ops)
	if err != nil {
		return err
	}
	cur := s.engine.Load().eng
	eng, err := update.ApplyDeltasToEngine(cur, rules, entries)
	if err != nil {
		return err
	}
	applied := time.Now()
	if s.obs != nil {
		s.obs.SwapIncremental.Observe(applied.Sub(start))
	}
	if s.cfg.VerifyPackets > 0 {
		s.swapSeed++
		spot := s.cfg.SpotCheckPackets
		if spot < 0 {
			spot = 0
		}
		m := update.VerifyDeltasScoped(eng, s.rs, next, rules, spot, s.swapSeed)
		if s.obs != nil {
			s.obs.SwapIncVerify.Observe(time.Since(applied))
		}
		if m != nil {
			return fmt.Errorf("serve: incremental verify failed, %w: %s", ErrRolledBack, m)
		}
	}
	s.commitLocked(eng, next, start, true)
	return nil
}

// Reload replaces the entire ruleset through the same build-verify-swap
// path as ApplyOps.
func (s *Service) Reload(rs *ruleset.RuleSet) error {
	if rs == nil || rs.Len() == 0 {
		s.invalidOps.Inc()
		return fmt.Errorf("serve: reload with empty ruleset")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.swapLocked(rs.Clone())
}

// swapLocked builds, verifies and installs an engine for next. Callers
// hold s.mu.
func (s *Service) swapLocked(next *ruleset.RuleSet) error {
	start := time.Now()
	shadow, err := s.build(next)
	if err != nil {
		s.failedSwaps.Inc()
		s.journal.Append(obsv.EventSwapRolledBack, s.gens.Load(), 1, 0, 0)
		return fmt.Errorf("serve: shadow build failed, %w: %w", ErrRolledBack, err)
	}
	buildDone := time.Now()
	if s.obs != nil {
		s.obs.SwapBuild.Observe(buildDone.Sub(start))
	}
	if s.cfg.VerifyPackets > 0 {
		s.swapSeed++
		trace := ruleset.GenerateTrace(next, ruleset.TraceConfig{
			Count: s.cfg.VerifyPackets, MatchFraction: 0.8, Seed: s.swapSeed,
		})
		m := core.VerifyClassify(core.NewLinear(next), shadow, trace)
		if s.obs != nil {
			s.obs.SwapVerify.Observe(time.Since(buildDone))
		}
		if m != nil {
			s.failedSwaps.Inc()
			s.journal.Append(obsv.EventSwapRolledBack, s.gens.Load(), 2, 0, 0)
			return fmt.Errorf("serve: shadow verify failed, %w: %s", ErrRolledBack, m)
		}
	}
	s.commitLocked(shadow, next, start, false)
	return nil
}

// commitLocked publishes a verified engine for next under a fresh
// flow-cache generation — the one commit sequence the rebuild and the
// incremental path share. The pointer store retires every cache entry
// older builds wrote, as lazy misses. start is when the swap began;
// incremental selects the counter and the journal's path flag. Callers
// hold s.mu.
func (s *Service) commitLocked(eng core.Engine, next *ruleset.RuleSet, start time.Time, incremental bool) {
	s.rs = next
	retired := s.gens.Load()
	gen := s.gens.Add(1)
	s.engine.Store(&live{eng: eng, gen: gen})
	var path int64
	if incremental {
		s.incrementalSwaps.Inc()
		path = 1
	} else {
		s.swaps.Inc()
	}
	s.journal.Append(obsv.EventGenerationRetired, retired, 0, 0, 0)
	s.journal.Append(obsv.EventSwapCommitted, gen, int64(next.Len()), path, 0)
	elapsed := time.Since(start)
	s.swapNanos.Add(int64(elapsed))
	s.swapLast.Set(int64(elapsed))
	if s.obs != nil {
		s.obs.SwapTotal.Observe(elapsed)
	}
}

// Registry returns the registry the service's instruments live in: the
// Obs registry when observability is wired, a private one otherwise.
func (s *Service) Registry() *obsv.Registry { return s.reg }

// ShardDepths reports each worker shard's currently queued batch count,
// for per-shard exposition gauges. The reads are instantaneous channel
// lengths — consistent enough for a scrape, not a synchronized snapshot.
func (s *Service) ShardDepths() []int {
	out := make([]int, len(s.shards))
	for i, shard := range s.shards {
		out[i] = len(shard)
	}
	return out
}

// Workers returns the worker (and shard) count.
func (s *Service) Workers() int { return len(s.shards) }

// CacheStats snapshots the flow cache counters; ok is false when the
// service runs uncached. The per-worker private caches are aggregated into
// one view (Shards = worker count, Generation = the newest generation any
// worker has served).
func (s *Service) CacheStats() (stats flowcache.Stats, ok bool) {
	if s.workers[0].cache == nil {
		return flowcache.Stats{}, false
	}
	var agg flowcache.Stats
	for _, w := range s.workers {
		st := w.cache.Stats()
		agg.Hits += st.Hits
		agg.Misses += st.Misses
		agg.Evictions += st.Evictions
		agg.StaleDrops += st.StaleDrops
		agg.Entries += st.Entries
		agg.Shards++
		if st.Generation > agg.Generation {
			agg.Generation = st.Generation
		}
	}
	return agg, true
}

// WorkerCacheStats snapshots each worker's private flow cache (nil when
// the service is uncached). Index i is worker i's cache — the flows
// SteerWorker maps there and nothing else.
func (s *Service) WorkerCacheStats() []flowcache.Stats {
	if s.workers[0].cache == nil {
		return nil
	}
	out := make([]flowcache.Stats, len(s.workers))
	for i, w := range s.workers {
		out[i] = w.cache.Stats()
	}
	return out
}

// WorkerClassified reports each worker's classified-packet count, the
// steering skew made visible: uniform flows should spread these evenly,
// a Zipf trace will not.
func (s *Service) WorkerClassified() []int64 {
	out := make([]int64, len(s.workers))
	for i, w := range s.workers {
		out[i] = w.classified.Load()
	}
	return out
}

// WorkerLoad is one worker's load snapshot: cumulative packets and
// batches classified, the instantaneous queue depth of its shard, and
// its private-cache hit rate (-1 when the worker runs uncached).
type WorkerLoad struct {
	Worker     int     `json:"worker"`
	Classified int64   `json:"classified"`
	Batches    int64   `json:"batches"`
	QueueDepth int     `json:"queue_depth"`
	HitRate    float64 `json:"cache_hit_rate"`
}

// WorkerLoads snapshots every worker's load telemetry, for /statusz and
// the end-of-run report. Queue depths are instantaneous channel lengths —
// consistent enough for a scrape, not a synchronized snapshot.
func (s *Service) WorkerLoads() []WorkerLoad {
	out := make([]WorkerLoad, len(s.workers))
	for i, w := range s.workers {
		wl := WorkerLoad{
			Worker:     i,
			Classified: w.classified.Load(),
			Batches:    w.batches.Load(),
			QueueDepth: len(s.shards[i]),
			HitRate:    -1,
		}
		if w.cache != nil {
			wl.HitRate = w.cache.Stats().HitRate()
		}
		out[i] = wl
	}
	return out
}

// ImbalanceIndex samples the per-worker classified counts into the
// sliding load window and returns max/mean of the per-worker deltas over
// that window: 1.0 is perfect balance, Workers means one worker took
// everything, 0 means no traffic moved since the oldest retained sample.
// The value is mirrored into the serve.imbalance_milli gauge (in
// 1/1000ths), and when the heavy-hitter detector is live the sample also
// runs the rebalance-candidate check (top-K share x imbalance against
// Config.RebalanceThreshold, journaled with hysteresis). Call it
// periodically — each /metrics scrape does, and the scaling bench does at
// the end of its measured window.
func (s *Service) ImbalanceIndex() float64 {
	idx := s.load.Sample(s.WorkerClassified())
	s.imbalance.Set(int64(idx * 1000))
	s.maybeRebalanceEvent(idx)
	return idx
}

// maybeRebalanceEvent journals one EventRebalanceCandidate per threshold
// excursion of the skew score (top-K flow share x imbalance index): the
// signal ROADMAP item 8's adaptive steering will consume, recorded today
// so the condition is observable before the mechanism exists.
func (s *Service) maybeRebalanceEvent(idx float64) {
	det := s.det
	thr := s.cfg.RebalanceThreshold
	if det == nil || thr <= 0 || idx <= 0 {
		return
	}
	score := det.TopKShare() * idx
	if score >= thr {
		if s.rebalanceHot.CompareAndSwap(false, true) {
			counts := s.WorkerClassified()
			hot := 0
			for i, c := range counts {
				if c > counts[hot] {
					hot = i
				}
			}
			s.journal.Append(obsv.EventRebalanceCandidate, s.gens.Load(), int64(hot), 0, score)
		}
	} else if score < thr*0.8 {
		s.rebalanceHot.Store(false)
	}
}

// FlowStats returns the heavy-hitter detector, nil when detection is off
// (unobserved, or TopFlows < 0). The returned
// detector is safe to read concurrently with serving.
func (s *Service) FlowStats() *flowstats.Detector { return s.det }

// Counters snapshots the service statistics.
func (s *Service) Counters() Counters {
	c := Counters{
		Classified:           s.classified.Value(),
		Batches:              s.batches.Value(),
		ClosedSubmits:        s.closedSubmits.Value(),
		QueueHighWater:       s.depth.Max(),
		Swaps:                s.swaps.Value(),
		FailedSwaps:          s.failedSwaps.Value(),
		InvalidOps:           s.invalidOps.Value(),
		IncrementalSwaps:     s.incrementalSwaps.Value(),
		IncrementalRollbacks: s.incrementalRollbacks.Value(),
		IncrementalFallbacks: s.incrementalFallbacks.Value(),
		SwapLatencyMax:       time.Duration(s.swapLast.Max()),
	}
	if n := c.Swaps + c.IncrementalSwaps; n > 0 {
		c.SwapLatencyMean = time.Duration(s.swapNanos.Value() / n)
	}
	if st, ok := s.CacheStats(); ok {
		c.CacheEnabled = true
		c.Cache = st
	}
	return c
}

// Close stops accepting submissions, waits for queued and in-flight
// batches to drain, and returns early with the context's error if the
// drain outlives it. Close is idempotent.
func (s *Service) Close(ctx context.Context) error {
	s.lifecycle.Lock()
	if !s.closed {
		s.closed = true
		for _, shard := range s.shards {
			close(shard)
		}
	}
	s.lifecycle.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
