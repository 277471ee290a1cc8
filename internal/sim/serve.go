// ServeTrace: the lookup-under-update experiment. The paper asserts both
// engines stay at wire speed while rules are reconfigured (Section IV-C)
// but never measures the interaction; this harness replays a trace through
// the concurrent serving layer while an updater continuously lands
// hot-swaps, and reports the throughput cost of update churn against the
// same engine measured churn-free.

package sim

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pktclass/internal/obsv"
	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
	"pktclass/internal/serve"
	"pktclass/internal/update"
)

// ServeConfig parameterizes a ServeTrace run.
type ServeConfig struct {
	// Workers and QueueDepth configure the service (see serve.Config).
	Workers    int
	QueueDepth int
	// BatchSize is the submission granularity (0 selects 64).
	BatchSize int
	// Swaps bounds the number of hot-swaps the updater lands; <= 0 churns
	// continuously until the replay completes.
	Swaps int
	// OpsPerSwap is the number of rule replacements per swap (0 selects 8).
	OpsPerSwap int
	// VerifyPackets is the per-swap differential verification trace length
	// (see serve.Config.VerifyPackets).
	VerifyPackets int
	// CacheEntries fronts the service's engines with the exact-match flow
	// cache of this capacity (0 replays uncached; see
	// serve.Config.CacheEntries). The churn-free baseline is always
	// uncached, so DegradationPct directly reads the combined cost or win
	// of the serving layer plus cache under update churn.
	CacheEntries int
	// Churn false replays with no updater at all.
	Churn bool
	// Incremental routes the churn swaps through the engines' O(delta)
	// update primitives with scoped verification (see
	// serve.Config.Incremental); SpotCheckPackets sizes the scoped verify's
	// sampled sweep (see serve.Config.SpotCheckPackets).
	Incremental      bool
	SpotCheckPackets int
	// Seed makes the update stream deterministic.
	Seed int64
	// Obs wires the service's observability layer (see serve.Config.Obs).
	// The churn-free baseline is always unobserved, so DegradationPct also
	// reads the instrumentation cost when Obs is set.
	Obs *obsv.Obs
}

// ServeResult is the outcome of one lookup-under-update replay.
type ServeResult struct {
	// Results holds the per-packet classifications in trace order. Batches
	// land atomically on one engine version, so under semantics-changing
	// churn a packet's result reflects the version its batch observed.
	Results []int
	Packets int
	Elapsed time.Duration
	// PacketsPerSec is the service throughput measured under churn.
	PacketsPerSec float64
	// BaselinePacketsPerSec is ClassifyBatch on the same engine with no
	// service and no churn — the reference for degradation.
	BaselinePacketsPerSec float64
	// DegradationPct is the relative throughput loss versus the baseline
	// (negative when the serving layer happens to measure faster).
	DegradationPct float64
	// Rollbacks counts churn swaps the service rejected at the shadow
	// build/verify stage. A rollback is a legitimate outcome under churn —
	// the service kept serving the previous engine — so the experiment
	// keeps churning and reports the count instead of aborting.
	Rollbacks int64
	// Counters is the service's own accounting (swap count and latency,
	// queue high-water mark).
	Counters serve.Counters
}

// ServeTrace replays the trace through a serve.Service in batches while an
// updater goroutine applies rule replacements through the shadow-swap
// path. Churn requires a prefix-only ruleset (update.GenerateOps's
// constraint). The input ruleset is cloned; the caller's copy is never
// mutated.
func ServeTrace(rs *ruleset.RuleSet, build serve.BuildFunc, trace []packet.Header, cfg ServeConfig) (ServeResult, error) {
	if len(trace) == 0 {
		return ServeResult{}, fmt.Errorf("sim: empty trace")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.OpsPerSwap <= 0 {
		cfg.OpsPerSwap = 8
	}
	if cfg.Churn && rs.ExpansionFactor() != 1 {
		return ServeResult{}, fmt.Errorf("sim: churn requires a prefix-only ruleset (expansion factor %.2f)", rs.ExpansionFactor())
	}

	// Churn-free reference on the same engine construction.
	baseEng, err := build(rs.Clone())
	if err != nil {
		return ServeResult{}, fmt.Errorf("sim: baseline build: %w", err)
	}
	baseline := ClassifyBatch(baseEng, trace, cfg.Workers)

	svc, err := serve.New(rs.Clone(), build, serve.Config{
		Workers:          cfg.Workers,
		QueueDepth:       cfg.QueueDepth,
		VerifyPackets:    cfg.VerifyPackets,
		CacheEntries:     cfg.CacheEntries,
		Incremental:      cfg.Incremental,
		SpotCheckPackets: cfg.SpotCheckPackets,
		Seed:             cfg.Seed,
		Obs:              cfg.Obs,
	})
	if err != nil {
		return ServeResult{}, err
	}
	defer svc.Close(context.Background())

	var (
		replayDone atomic.Bool
		rollbacks  atomic.Int64
		updaterErr error
		updaterWG  sync.WaitGroup
	)
	if cfg.Churn {
		updaterWG.Add(1)
		go func() {
			defer updaterWG.Done()
			seed := cfg.Seed + 1
			for n := 0; cfg.Swaps <= 0 || n < cfg.Swaps; n++ {
				if replayDone.Load() {
					return
				}
				// Op generation failing is a harness error and aborts the
				// experiment; a swap the service rolled back at the shadow
				// build/verify stage is a measured outcome — count it and
				// keep churning.
				ops, err := update.GenerateOps(svc.RuleSet(), cfg.OpsPerSwap, seed)
				if err != nil {
					updaterErr = err
					return
				}
				seed++
				if err := svc.ApplyOps(ops); err != nil {
					if errors.Is(err, serve.ErrRolledBack) {
						rollbacks.Add(1)
						continue
					}
					updaterErr = err
					return
				}
			}
		}()
	}

	// Submit blocks while the target queues are full, so the replay is
	// paced by the service; results are collected in submission order once
	// everything is in flight.
	pending := make([]*serve.Pending, 0, (len(trace)+cfg.BatchSize-1)/cfg.BatchSize)
	start := time.Now()
	for lo := 0; lo < len(trace); lo += cfg.BatchSize {
		hi := lo + cfg.BatchSize
		if hi > len(trace) {
			hi = len(trace)
		}
		p, err := svc.Submit(trace[lo:hi])
		if err != nil {
			return ServeResult{}, err
		}
		pending = append(pending, p)
	}
	results := make([]int, 0, len(trace))
	for _, p := range pending {
		r, err := p.Wait(context.Background())
		if err != nil {
			return ServeResult{}, err
		}
		results = append(results, r...)
	}
	elapsed := time.Since(start)
	replayDone.Store(true)
	updaterWG.Wait()
	if updaterErr != nil {
		return ServeResult{}, fmt.Errorf("sim: updater: %w", updaterErr)
	}
	if err := svc.Close(context.Background()); err != nil {
		return ServeResult{}, err
	}

	r := ServeResult{
		Results:               results,
		Packets:               len(trace),
		Elapsed:               elapsed,
		BaselinePacketsPerSec: baseline.PacketsPerSec,
		Rollbacks:             rollbacks.Load(),
		Counters:              svc.Counters(),
	}
	if elapsed > 0 {
		r.PacketsPerSec = float64(len(trace)) / elapsed.Seconds()
	}
	if r.BaselinePacketsPerSec > 0 {
		r.DegradationPct = 100 * (r.BaselinePacketsPerSec - r.PacketsPerSec) / r.BaselinePacketsPerSec
	}
	return r, nil
}
