// bench -scaling: the multi-core scaling sweep. For each worker count the
// sweep builds a service (RSS-style flow steering, worker-private flow
// caches), drives it from one feeder goroutine per worker over the
// synchronous zero-allocation ClassifySteered path, and reports aggregate
// throughput plus scaling efficiency against the single-worker baseline —
// the software analogue of the paper's area-vs-throughput replication
// argument: P engines should buy ~P times the packet rate.
package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"pktclass/internal/cli"
	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
	"pktclass/internal/serve"
	"pktclass/internal/sim"
)

// scalingResult is one (engine, ruleset size, worker count) point of the
// sweep. Efficiency is PktsPerSec divided by (workers x the per-worker
// rate of the sweep's smallest point) — 1.0 is perfectly linear scaling.
type scalingResult struct {
	Engine       string
	Rules        int
	Workers      int
	CacheEntries int
	HitRate      float64
	PktsPerSec   float64
	Speedup      float64
	Efficiency   float64
	// Imbalance is the steering imbalance index over the measured window
	// (max/mean per-worker load; 1.0 = perfectly balanced, Workers = one
	// worker took everything) — the skew side of the scaling story that
	// efficiency alone hides: a Zipf point can scale poorly either because
	// the path stops scaling or because steering parked the elephants on
	// one worker, and this column tells the two apart.
	Imbalance float64
}

// scalingConfig carries the sweep knobs shared with the classification
// bench plus the per-point measurement duration.
type scalingConfig struct {
	traffic traffic
	profile ruleset.Profile
	cache   int
	seed    int64
	stride  int
	dur     time.Duration
}

// scalingPoint measures one worker count: W feeders hammer a W-worker
// steered service for cfg.dur and the aggregate completed-packet rate is
// the point's throughput. Each feeder gets its own flow population
// (distinct seed): feeders model independent NIC queues, and sharing one
// flow set would let the private caches of a W-worker point serve another
// feeder's warm-up.
func scalingPoint(name string, rules, workers int, cfg scalingConfig) (scalingResult, error) {
	rs := ruleset.Generate(ruleset.GenConfig{N: rules, Profile: cfg.profile, Seed: cfg.seed, DefaultRule: true})
	build := cli.EngineBuilderOpts(name, cli.Options{Stride: cfg.stride})
	svc, err := serve.New(rs, build, serve.Config{
		Workers:      workers,
		CacheEntries: cfg.cache,
		Seed:         cfg.seed,
	})
	if err != nil {
		return scalingResult{}, err
	}
	defer svc.Close(context.Background())

	load := sim.Load{Feeds: make([][]packet.Header, workers), Batch: cfg.traffic.count}
	for f := range load.Feeds {
		if load.Feeds[f], err = cfg.traffic.generate(rs, cfg.seed+int64(f)*101+1); err != nil {
			return scalingResult{}, err
		}
	}
	// Warm-up: grow the steer scratch pool and fill the private caches so
	// the timed window measures steady state, not cold misses.
	if _, err := sim.Drive(svc, load); err != nil {
		return scalingResult{}, err
	}
	warm, _ := svc.CacheStats()
	// Baseline load sample: the measured window's imbalance index is the
	// delta between this sample and the end-of-window one, so warm-up
	// traffic never pollutes it.
	svc.ImbalanceIndex()
	load.For = cfg.dur
	out, err := sim.Drive(svc, load)
	if err != nil {
		return scalingResult{}, err
	}

	r := scalingResult{
		Engine:       name,
		Rules:        rules,
		Workers:      workers,
		CacheEntries: cfg.cache,
		PktsPerSec:   float64(out.Packets) / out.Elapsed.Seconds(),
		Imbalance:    svc.ImbalanceIndex(),
	}
	if st, ok := svc.CacheStats(); ok {
		if lookups := (st.Hits - warm.Hits) + (st.Misses - warm.Misses); lookups > 0 {
			r.HitRate = float64(st.Hits-warm.Hits) / float64(lookups)
		}
	}
	closeCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.Close(closeCtx); err != nil {
		return scalingResult{}, fmt.Errorf("scaling close: %w", err)
	}
	return r, nil
}

// runScaling sweeps one engine/size pair across the worker counts and
// fills in speedup/efficiency against the per-worker rate of the sweep's
// first (smallest) point.
func runScaling(name string, rules int, workersList []int, cfg scalingConfig) ([]scalingResult, error) {
	out := make([]scalingResult, 0, len(workersList))
	perWorkerBase := 0.0
	for _, w := range workersList {
		r, err := scalingPoint(name, rules, w, cfg)
		if err != nil {
			return nil, fmt.Errorf("scaling %s N=%d workers=%d: %w", name, rules, w, err)
		}
		if perWorkerBase == 0 && r.PktsPerSec > 0 {
			perWorkerBase = r.PktsPerSec / float64(r.Workers)
		}
		if perWorkerBase > 0 {
			r.Speedup = r.PktsPerSec / perWorkerBase
			r.Efficiency = r.Speedup / float64(r.Workers)
		}
		out = append(out, r)
	}
	return out, nil
}

func printScalingRow(r scalingResult) {
	label := r.Engine
	if r.CacheEntries > 0 {
		label = "cached-" + label
	}
	// The host's vCPU count and GOMAXPROCS ride on every row: efficiency
	// at a worker count means little without the cores it ran on.
	fmt.Printf("%-20s N=%-5d workers=%-3d cpus=%d procs=%d %9.3f Mpps  speedup %5.2fx  efficiency %5.2f  imbalance %4.2f",
		label, r.Rules, r.Workers, runtime.NumCPU(), runtime.GOMAXPROCS(0), r.PktsPerSec/1e6, r.Speedup, r.Efficiency, r.Imbalance)
	if r.CacheEntries > 0 {
		fmt.Printf("  %5.1f%% hits", 100*r.HitRate)
	}
	fmt.Println()
}
