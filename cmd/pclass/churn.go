// The -churn mode of pclass bench: measure sustained rule-update
// throughput against a live serving classifier, incremental (O(delta)
// engine updates) versus rebuild (full shadow build per swap), and the
// classify-latency cost of the churn versus a churn-free run of the same
// service. This is the operational readout behind the paper's Section IV-C
// reconfigurability claim: updates per second the engine absorbs while
// still answering lookups at speed.
package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"pktclass/internal/cli"
	"pktclass/internal/core"
	"pktclass/internal/obsv"
	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
	"pktclass/internal/serve"
	"pktclass/internal/sim"
)

// churnResult is one (engine, size, mode) churn measurement.
type churnResult struct {
	Engine string
	Rules  int
	// Mode is "incremental" or "rebuild".
	Mode string
	// RuleOpsPerSec is the single-rule replacements committed per second
	// of the churn phase's wall time.
	RuleOpsPerSec float64
	// ClassifyP99Ns is the service's per-batch classify p99 under churn;
	// BaselineP99Ns is the same service's p99 with no updater running, and
	// P99DeltaPct the relative cost ((churn-baseline)/baseline).
	ClassifyP99Ns int64
	BaselineP99Ns int64
	P99DeltaPct   float64
	// Swap accounting, straight from the service counters: Swaps is the
	// rebuild path, IncrementalSwaps the O(delta) path, Rollbacks failed
	// scoped verifies (retried as rebuilds), Fallbacks structural deltas.
	Swaps            int64
	IncrementalSwaps int64
	Rollbacks        int64
	Fallbacks        int64
}

// churnConfig carries the bench flags the churn mode consumes.
type churnConfig struct {
	stride     int
	workers    int
	batch      int
	opsPerSwap int
	dur        time.Duration
	verify     int
	seed       int64
}

// churnOne measures one engine at one size in one mode: a churn-free
// phase fixes the classify p99 reference, then the churn phase runs an
// updater flat out beside the same classify load on a fresh service. Each
// phase's service is warmed by one untimed replay of the trace first.
func churnOne(name string, n int, incremental bool, cfg churnConfig) (churnResult, error) {
	rs := ruleset.Generate(ruleset.GenConfig{N: n, Profile: ruleset.PrefixOnly, Seed: cfg.seed, DefaultRule: true})
	build := func(r *ruleset.RuleSet) (core.Engine, error) {
		return cli.BuildEngine(r, name, cfg.stride)
	}
	trace, err := traffic{count: 4096, zipfS: -1, match: 0.9}.generate(rs, cfg.seed+1)
	if err != nil {
		return churnResult{}, err
	}
	var (
		p99      [2]int64
		counters serve.Counters
		out      sim.Outcome
	)
	for phase, ops := range []int{0, cfg.opsPerSwap} {
		// Collect garbage left by the previous phase so its heap does not
		// bill GC pauses to this one's latency histogram.
		runtime.GC()
		obs := obsv.NewObs(nil, nil)
		svc, err := serve.New(rs.Clone(), build, serve.Config{
			Workers:       cfg.workers,
			Incremental:   incremental,
			VerifyPackets: cfg.verify,
			Seed:          cfg.seed,
			Obs:           obs,
		})
		if err != nil {
			return churnResult{}, err
		}
		// One untimed replay first, as -scaling does, so neither phase pays
		// the cold pools and caches in its p99; its batches are taken out
		// of the histogram below.
		var warm obsv.HistSnapshot
		if _, err = sim.Drive(svc, sim.Load{Feeds: [][]packet.Header{trace}, Batch: cfg.batch}); err == nil {
			warm = obs.ClassifyBatch.Snapshot()
			out, err = sim.Drive(svc, sim.Load{
				Feeds: [][]packet.Header{trace}, Batch: cfg.batch, For: cfg.dur,
				OpsPerSwap: ops, Seed: cfg.seed + 100,
			})
		}
		if cerr := svc.Close(context.Background()); err == nil {
			err = cerr
		}
		if err != nil {
			return churnResult{}, err
		}
		p99[phase], counters = since(obs.ClassifyBatch.Snapshot(), warm).Quantile(0.99), svc.Counters()
	}
	mode := "rebuild"
	if incremental {
		mode = "incremental"
	}
	r := churnResult{
		Engine:           name,
		Rules:            n,
		Mode:             mode,
		RuleOpsPerSec:    float64(out.RuleOps) / out.Elapsed.Seconds(),
		ClassifyP99Ns:    p99[1],
		BaselineP99Ns:    p99[0],
		Swaps:            counters.Swaps,
		IncrementalSwaps: counters.IncrementalSwaps,
		Rollbacks:        counters.IncrementalRollbacks,
		Fallbacks:        counters.IncrementalFallbacks,
	}
	if p99[0] > 0 {
		r.P99DeltaPct = 100 * float64(p99[1]-p99[0]) / float64(p99[0])
	}
	return r, nil
}

// since is s without the samples of before, an earlier snapshot of the
// same histogram. Max stays the whole run's, which only caps Quantile.
func since(s, before obsv.HistSnapshot) obsv.HistSnapshot {
	for b, c := range before.Buckets {
		s.Buckets[b] -= c
	}
	s.Count -= before.Count
	s.Sum -= before.Sum
	return s
}

func printChurnRow(r churnResult) {
	fmt.Printf("%-12s N=%-6d %-12s %10.0f ops/s  p99 %8s (baseline %8s, %+5.1f%%)  swaps=%d inc=%d rb=%d fb=%d\n",
		r.Engine, r.Rules, r.Mode, r.RuleOpsPerSec,
		time.Duration(r.ClassifyP99Ns), time.Duration(r.BaselineP99Ns), r.P99DeltaPct,
		r.Swaps, r.IncrementalSwaps, r.Rollbacks, r.Fallbacks)
}
