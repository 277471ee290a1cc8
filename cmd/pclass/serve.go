// The serve subcommand: run the concurrent classification service against
// a load generator, optionally churning ruleset hot-swaps underneath it,
// or (-measure) run the lookup-under-update replay experiment.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"pktclass/internal/cli"
	"pktclass/internal/obsv"
	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
	"pktclass/internal/serve"
	"pktclass/internal/sim"
)

func runServe(args []string) {
	fs := flag.NewFlagSet("pclass serve", flag.ExitOnError)
	var (
		rulesPath   = fs.String("rules", "", "ruleset file (required; prefix-only when hot-swaps are enabled)")
		engine      = fs.String("engine", "stridebv", "engine: "+strings.Join(cli.EngineNames(), " | "))
		stride      = fs.Int("stride", 4, "stride length for stridebv/rangebv")
		splitter    = fs.String("splitter", "", "partitioned engines: splitting policy, prefix | band (empty = engine default; band keeps every hot-swap on the O(delta) path)")
		partsN      = fs.Int("partitions", 0, "partitioned engines: band count (0 = 1)")
		prefixBits  = fs.Int("prefix-bits", 0, "partitioned engines: prefix pre-decoder width (0 = size from N)")
		workers     = fs.Int("workers", 0, "classification workers (0 = GOMAXPROCS)")
		queue       = fs.Int("queue", 0, "submission queue depth in sub-batches; a full queue blocks the submitter (0 = 4 per worker)")
		batch       = fs.Int("batch", 64, "packets per submitted batch")
		tracePath   = fs.String("trace", "", "trace file; a directed trace is generated when empty")
		packets     = fs.Int("packets", 50000, "generated trace length when -trace is empty")
		cacheN      = fs.Int("cache", 0, "flow-cache capacity in entries, split into worker-private caches fronting the engine (0 = uncached)")
		skew        = fs.String("skew", "uniform", "generated-trace skew: uniform | zipf:S (e.g. zipf:1.2)")
		flows       = fs.Int("flows", 4096, "flow population size for zipf traffic")
		burst       = fs.Float64("burst", 4, "mean flow-burst length for zipf traffic")
		duration    = fs.Duration("duration", 2*time.Second, "load-generator run time")
		clients     = fs.Int("clients", 4, "load-generator goroutines")
		updateEvery = fs.Duration("update-every", 0, "interval between ruleset hot-swaps (0 disables churn)")
		opsPerSwap  = fs.Int("ops-per-swap", 8, "rule replacements per hot-swap")
		incremental = fs.Bool("incremental", false, "apply hot-swaps through the engines' O(delta) update path (scoped verify + rebuild fallback)")
		measure     = fs.Bool("measure", false, "replay the trace once under continuous churn and report throughput degradation")
		swaps       = fs.Int("swaps", 0, "bound on hot-swaps in -measure mode (0 = churn for the whole replay)")
		seed        = fs.Int64("seed", 1, "deterministic seed for traces and update streams")
		obsvAddr    = fs.String("obsv", "", "observability HTTP address (e.g. :9090): /metrics, /statusz, /tracez, /topflows, /eventz, /debug/pprof (empty disables)")
		sample      = fs.Int("sample", 0, "sampled packet tracing: record 1 in N packets hop by hop (0 disables)")
		top         = fs.Int("top", 0, "end-of-run heavy-hitter report: print the top N detected flows (implies observability)")
	)
	fs.Parse(args)
	if *rulesPath == "" {
		fs.Usage()
		os.Exit(2)
	}

	rs, err := cli.LoadRuleSet(*rulesPath)
	if err != nil {
		log.Fatal(err)
	}
	hdrs, err := loadOrGenerateTrace(*tracePath, rs, *skew,
		traffic{count: *packets, flows: *flows, burst: *burst, match: 0.8}, *seed)
	if err != nil {
		log.Fatal(err)
	}
	build := cli.EngineBuilderOpts(*engine, cli.Options{
		Stride: *stride, Partitions: *partsN, Splitter: *splitter, PrefixBits: *prefixBits,
	})

	// Observability is on whenever any of the flags asks for it: -obsv
	// alone serves histograms and pprof, -sample alone records traces for
	// the end-of-run report, -top alone arms the heavy-hitter detector.
	var obs *obsv.Obs
	if *obsvAddr != "" || *sample > 0 || *top > 0 {
		obs = newObs(*sample)
	}
	svc, err := serve.New(rs, build, serve.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		CacheEntries: *cacheN,
		Incremental:  *incremental,
		TopFlows:     *top,
		Seed:         *seed,
		Obs:          obs,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *obsvAddr != "" {
		obsSrv, bound, err := startObsServer(*obsvAddr, obs, svc)
		if err != nil {
			log.Fatalf("obsv server: %v", err)
		}
		fmt.Printf("observability    http://%s/{metrics,statusz,tracez,topflows,eventz,debug/pprof}\n", bound)
		defer func() {
			shCtx, shCancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer shCancel()
			obsSrv.Shutdown(shCtx)
		}()
	}
	// -measure replays the trace once, one contiguous feed per worker, and
	// sets it against ClassifyBatch on a churn-free engine with the same
	// shares; otherwise -clients feeders cycle the trace for -duration.
	load := sim.Load{Batch: *batch, Seed: *seed + 1}
	var baseline sim.BatchResult
	if *measure {
		eng, err := build(rs)
		if err != nil {
			log.Fatalf("baseline build: %v", err)
		}
		baseline = sim.ClassifyBatch(eng, hdrs, svc.Workers())
		load.Feeds, load.OpsPerSwap, load.Swaps = sim.Split(hdrs, svc.Workers()), *opsPerSwap, *swaps
	} else {
		load.Feeds, load.For = sim.Split(hdrs, *clients), *duration
		if *updateEvery > 0 {
			load.OpsPerSwap, load.Every = *opsPerSwap, *updateEvery
		}
	}
	out, err := sim.Drive(svc, load)
	if err != nil {
		log.Fatal(err)
	}
	closeCtx, closeCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer closeCancel()
	if err := svc.Close(closeCtx); err != nil {
		log.Fatalf("shutdown: %v", err)
	}

	pps := float64(out.Packets) / out.Elapsed.Seconds()
	if *measure {
		fmt.Printf("packets          %d\n", out.Packets)
		fmt.Printf("elapsed          %s\n", out.Elapsed)
		fmt.Printf("throughput       %.0f pkt/s under churn\n", pps)
		fmt.Printf("baseline         %.0f pkt/s churn-free\n", baseline.PacketsPerSec)
		fmt.Printf("degradation      %.1f%%\n", 100*(baseline.PacketsPerSec-pps)/baseline.PacketsPerSec)
	} else {
		fmt.Printf("engine           %s\n", svc.Engine().Name())
		fmt.Printf("clients          %d over %s\n", len(load.Feeds), *duration)
		fmt.Printf("throughput       %.0f pkt/s\n", pps)
		fmt.Printf("steered workers  %v packets each\n", svc.WorkerClassified())
		fmt.Printf("imbalance index  %.3f (max/mean worker load; 1.0 = balanced)\n", svc.ImbalanceIndex())
	}
	fmt.Print(svc.Counters().Table())
	if *top > 0 {
		printTopFlows(svc, *top)
	}
	if obs != nil {
		printObsSummary(obs)
		printJournalTail(obs.Journal, 10)
	}
}

// printTopFlows renders the end-of-run heavy-hitter table (-top N).
func printTopFlows(svc *serve.Service, n int) {
	rep := svc.FlowStats().Report(n)
	fmt.Printf("top flows        %d observed packets, top-%d share %.1f%%\n",
		rep.Packets, rep.K, 100*rep.TopShare)
	for i, fc := range rep.Flows {
		fmt.Printf("  #%-3d %-10d %5.2f%%  worker=%d  %s\n",
			i+1, fc.Count, 100*fc.Share, fc.Worker, fc.Hdr)
	}
}

// printJournalTail renders the newest control-plane events (swap commits,
// rollbacks, fallbacks, retirements, pool resizes, rebalance candidates).
func printJournalTail(j *obsv.Journal, n int) {
	events := j.Snapshot()
	if len(events) == 0 {
		return
	}
	if len(events) > n {
		events = events[:n]
	}
	st := j.Stats()
	fmt.Printf("control-plane journal (%d events, %d dropped; newest first)\n", st.Appended, st.Dropped)
	for _, ev := range events {
		fmt.Printf("  %s\n", ev)
	}
}

// loadOrGenerateTrace reads the trace file when given, or generates t
// against the ruleset: a directed trace for -skew uniform, a Zipf
// flow-burst trace for -skew zipf:S.
func loadOrGenerateTrace(path string, rs *ruleset.RuleSet, skew string, t traffic, seed int64) ([]packet.Header, error) {
	if path != "" {
		return cli.LoadTrace(path)
	}
	if t.count <= 0 {
		return nil, fmt.Errorf("pclass serve: -packets must be positive when no -trace is given")
	}
	var err error
	if t.zipfS, err = parseSkew(skew); err != nil {
		return nil, fmt.Errorf("pclass serve: -skew: %w", err)
	}
	return t.generate(rs, seed)
}
