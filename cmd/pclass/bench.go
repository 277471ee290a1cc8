// The bench subcommand: measure the software classification rate of each
// engine's batched fast path over synthetic rulesets at the paper's sizes,
// optionally fronted by the exact-match flow cache under uniform or Zipf
// flow-burst traffic, and print one row of ns/pkt, pkts/sec and
// allocs/pkt per configuration. -scaling and -churn swap the
// classification sweep for the worker sweep and the update-throughput
// measurement.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"pktclass/internal/cli"
	"pktclass/internal/core"
	"pktclass/internal/flowcache"
	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
)

func runBench(args []string) {
	fs := flag.NewFlagSet("pclass bench", flag.ExitOnError)
	var (
		engines    = fs.String("engines", "stridebv,fsbv,rangebv,tcam,linear", "comma-separated engines to measure")
		sizes      = fs.String("sizes", "32,128,512,2048", "comma-separated ruleset sizes")
		strides    = fs.String("strides", "3,4", "comma-separated strides for stridebv/rangebv")
		packets    = fs.Int("packets", 1024, "packets per classified batch")
		profile    = fs.String("profile", "prefix-only", "ruleset profile: firewall | feature-free | prefix-only")
		cacheCSV   = fs.String("cache", "0", "comma-separated flow-cache capacities fronting each engine (0 = uncached); each value adds a measurement series")
		skew       = fs.String("skew", "uniform", "traffic skew: uniform | zipf:S (e.g. zipf:1.2)")
		flows      = fs.Int("flows", 256, "flow population size for zipf traffic")
		burst      = fs.Float64("burst", 4, "mean flow-burst length for zipf traffic")
		splitter   = fs.String("splitter", "", "partitioned engines: splitting policy, prefix | band (empty = engine default)")
		partsFlag  = fs.Int("partitions", 0, "partitioned engines: band count (0 = 1)")
		prefixBits = fs.Int("prefix-bits", 0, "partitioned engines: prefix pre-decoder width (0 = size from N)")
		diffVerify = fs.Int("verify-diff", 0, "differentially verify each engine against the linear reference over this many headers before measuring (0 disables)")
		churnFlag  = fs.Bool("churn", false, "measure sustained rule-update throughput (incremental vs rebuild) instead of classification rate")
		churnDur   = fs.Duration("churn-dur", 800*time.Millisecond, "churn mode: duration of each measurement phase")
		churnOps   = fs.Int("churn-ops", 64, "churn mode: rule replacements per update batch")
		workers    = fs.Int("workers", 2, "churn mode: serving workers")
		verifyPkts = fs.Int("verify", 64, "churn mode: per-swap differential verification trace length")
		seedFlag   = fs.Int64("seed", 1, "deterministic seed for rulesets and traces")
		scaling    = fs.Bool("scaling", false, "measure multi-core scaling: sweep steered-service worker counts and report aggregate Mpps + efficiency per point")
		scaleCSV   = fs.String("scale-workers", "", "scaling mode: comma-separated worker counts (empty = 1,2,4,... up to GOMAXPROCS)")
		scaleDur   = fs.Duration("scale-dur", 500*time.Millisecond, "scaling mode: measurement duration per worker count")
		minEff     = fs.Float64("min-efficiency", 0, "scaling mode: exit non-zero when any multi-worker point's efficiency falls below this (0 disables the gate)")
	)
	fs.Parse(args)
	ns, err := parseInts(*sizes, 1)
	if err != nil {
		log.Fatalf("-sizes: %v", err)
	}
	ks, err := parseInts(*strides, 1)
	if err != nil {
		log.Fatalf("-strides: %v", err)
	}
	caches, err := parseInts(*cacheCSV, 0)
	if err != nil {
		log.Fatalf("-cache: %v", err)
	}
	zipfS, err := parseSkew(*skew)
	if err != nil {
		log.Fatalf("-skew: %v", err)
	}
	prof, err := ruleset.ParseProfile(*profile)
	if err != nil {
		log.Fatalf("-profile: %v", err)
	}
	tr := traffic{count: *packets, zipfS: zipfS, flows: *flows, burst: *burst, match: 0.9}
	var names []string
	for _, name := range strings.Split(*engines, ",") {
		if name = strings.TrimSpace(name); name != "" {
			names = append(names, name)
		}
	}

	switch {
	case *scaling:
		wl, err := scalingWorkerList(*scaleCSV)
		if err != nil {
			log.Fatalf("-scale-workers: %v", err)
		}
		scfg := scalingConfig{traffic: tr, profile: prof, seed: *seedFlag, stride: ks[0], dur: *scaleDur}
		var below []string
		for _, name := range names {
			for _, n := range ns {
				for _, cacheN := range caches {
					scfg.cache = cacheN
					rows, err := runScaling(name, n, wl, scfg)
					if err != nil {
						log.Fatal(err)
					}
					for _, r := range rows {
						printScalingRow(r)
						if *minEff > 0 && r.Workers > 1 && r.Efficiency < *minEff {
							below = append(below, fmt.Sprintf("%s N=%d workers=%d cpus=%d procs=%d: efficiency %.2f < %.2f",
								r.Engine, r.Rules, r.Workers, runtime.NumCPU(), runtime.GOMAXPROCS(0), r.Efficiency, *minEff))
						}
					}
				}
			}
		}
		if len(below) > 0 {
			for _, b := range below {
				fmt.Println("SCALING", b)
			}
			log.Fatalf("bench: %d scaling point(s) below the -min-efficiency floor", len(below))
		}
	case *churnFlag:
		ccfg := churnConfig{
			stride: 4, workers: *workers, batch: 256, opsPerSwap: *churnOps,
			dur: *churnDur, verify: *verifyPkts, seed: *seedFlag,
		}
		for _, name := range names {
			for _, n := range ns {
				for _, incremental := range []bool{true, false} {
					r, err := churnOne(name, n, incremental, ccfg)
					if err != nil {
						log.Fatalf("churn %s N=%d: %v", name, n, err)
					}
					printChurnRow(r)
				}
			}
		}
	default:
		cfg := benchConfig{
			traffic: tr, profile: prof, seed: *seedFlag,
			splitter: *splitter, partitions: *partsFlag, prefixBits: *prefixBits,
			verify: *diffVerify,
		}
		for _, name := range names {
			// Only the stride-parameterized engines sweep k; the rest run
			// once per size at stride 0, and their rows name no k.
			engKs := []int{0}
			if name == "stridebv" || name == "rangebv" {
				engKs = ks
			}
			for _, k := range engKs {
				for _, n := range ns {
					for _, cacheN := range caches {
						cfg.cache = cacheN
						if err := benchOne(name, k, n, cfg); err != nil {
							log.Fatalf("%s N=%d: %v", name, n, err)
						}
					}
				}
			}
		}
	}
}

type benchConfig struct {
	traffic    traffic
	profile    ruleset.Profile
	cache      int
	seed       int64
	splitter   string
	partitions int
	prefixBits int
	// verify > 0 differentially checks the engine against the linear
	// reference over that many headers before timing anything.
	verify int
}

// benchOne measures one engine configuration with the testing package's
// adaptive benchmark loop and prints its row: each op classifies a whole
// batch through the engine's native ClassifyBatch path (or the generic
// fallback), with the flow cache in front when -cache is set.
func benchOne(name string, stride, rules int, cfg benchConfig) error {
	rs := ruleset.Generate(ruleset.GenConfig{N: rules, Profile: cfg.profile, Seed: cfg.seed, DefaultRule: true})
	eng, cache, err := benchEngine(rs, name, stride, cfg)
	if err != nil {
		return err
	}
	trace, err := cfg.traffic.generate(rs, cfg.seed+1)
	if err != nil {
		return err
	}
	out := make([]int, len(trace))
	core.ClassifyBatchInto(eng, trace, out) // warm scratch pools and the cache
	warm := flowcache.Stats{}
	if cache != nil {
		warm = cache.Stats()
	}
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.ClassifyBatchInto(eng, trace, out)
		}
	})
	nsPerPkt := float64(br.NsPerOp()) / float64(len(trace))
	pktsPerSec := 0.0
	if nsPerPkt > 0 {
		pktsPerSec = 1e9 / nsPerPkt
	}
	label := name
	if stride > 0 {
		label = fmt.Sprintf("%s-k%d", name, stride)
	}
	if cache != nil {
		label = "cached-" + label
	}
	fmt.Printf("%-20s N=%-5d %10.1f ns/pkt %14.0f pkt/s %8.3f allocs/pkt",
		label, rules, nsPerPkt, pktsPerSec, float64(br.AllocsPerOp())/float64(len(trace)))
	if cache != nil {
		// Steady-state hit rate: the warm-up pass absorbs the cold misses.
		st := cache.Stats()
		hitRate := 0.0
		if lookups := (st.Hits - warm.Hits) + (st.Misses - warm.Misses); lookups > 0 {
			hitRate = float64(st.Hits-warm.Hits) / float64(lookups)
		}
		fmt.Printf("  %5.1f%% hits", 100*hitRate)
	}
	fmt.Println()
	return nil
}

// benchEngine builds the engine benchOne times: name at stride (4 for the
// engines swept at stride 0) under the partition options, differentially
// verified against the linear reference when cfg.verify > 0, then fronted
// by a flow cache of cfg.cache entries when that is set.
func benchEngine(rs *ruleset.RuleSet, name string, stride int, cfg benchConfig) (core.Engine, *flowcache.Cache, error) {
	if stride == 0 {
		stride = 4
	}
	eng, err := cli.BuildEngineOpts(rs, name, cli.Options{
		Stride:     stride,
		Partitions: cfg.partitions,
		Splitter:   cfg.splitter,
		PrefixBits: cfg.prefixBits,
	})
	if err != nil {
		return nil, nil, err
	}
	if cfg.verify > 0 {
		if err := verifyAgainstLinear(eng, rs, cfg.verify, cfg.seed+7); err != nil {
			return nil, nil, err
		}
	}
	if cfg.cache == 0 {
		return eng, nil, nil
	}
	cache := flowcache.New(flowcache.Config{Entries: cfg.cache})
	return core.NewCached(eng, cache), cache, nil
}

// verifyAgainstLinear differentially checks an engine against the
// priority-ordered linear sweep of the same ruleset before any timing
// starts: the -verify-diff check. Both the single-packet and batched
// paths must agree with the reference on a directed trace (headers steered
// into rule regions) plus uniform-random headers.
func verifyAgainstLinear(eng core.Engine, rs *ruleset.RuleSet, count int, seed int64) error {
	directed := count * 3 / 4
	hdrs := ruleset.GenerateTrace(rs, ruleset.TraceConfig{
		Count: directed, MatchFraction: 0.9, Locality: 0.3, Seed: seed,
	})
	rng := rand.New(rand.NewSource(seed + 1))
	for len(hdrs) < count {
		hdrs = append(hdrs, ruleset.RandomHeader(rng))
	}
	lin := core.NewLinear(rs)
	batch := make([]int, len(hdrs))
	core.ClassifyBatchInto(eng, hdrs, batch)
	for i, h := range hdrs {
		want := lin.Classify(h)
		if got := eng.Classify(h); got != want {
			return fmt.Errorf("verify: %s diverges from linear on %s: got %d want %d", eng.Name(), h, got, want)
		}
		if batch[i] != want {
			return fmt.Errorf("verify: %s batch path diverges from linear on %s: got %d want %d", eng.Name(), h, batch[i], want)
		}
	}
	return nil
}

// scalingWorkerList parses -scale-workers, defaulting to powers of two up
// to GOMAXPROCS (always ending exactly at GOMAXPROCS, so the sweep's top
// point is the machine).
func scalingWorkerList(csv string) ([]int, error) {
	if csv != "" {
		return parseInts(csv, 1)
	}
	max := runtime.GOMAXPROCS(0)
	var wl []int
	for w := 1; w < max; w *= 2 {
		wl = append(wl, w)
	}
	return append(wl, max), nil
}

// traffic is generated load: count packets of a directed trace (zipfS <
// 0) or of Zipf flow-burst traffic over a population of flows, with match
// of them aimed into rule match regions.
type traffic struct {
	count int
	zipfS float64
	flows int
	burst float64
	match float64
}

// generate draws the traffic against rs. The directed trace and the flow
// population are seeded with seed, the Zipf burst stream with seed+1.
// Zipf traffic needs at least one flow; the directed trace ignores flows.
func (t traffic) generate(rs *ruleset.RuleSet, seed int64) ([]packet.Header, error) {
	if t.zipfS < 0 {
		return ruleset.GenerateTrace(rs, ruleset.TraceConfig{
			Count: t.count, MatchFraction: t.match, Locality: 0.3, Seed: seed,
		}), nil
	}
	if t.flows < 1 {
		return nil, fmt.Errorf("-flows %d: zipf traffic needs at least one flow", t.flows)
	}
	pop := ruleset.FlowHeaders(rs, t.flows, t.match, seed)
	return packet.ZipfTrace(pop, packet.ZipfTraceConfig{
		Count: t.count, S: t.zipfS, MeanBurst: t.burst, Seed: seed + 1,
	})
}

// parseSkew maps the -skew flag to a Zipf exponent; a negative return
// selects the uniform directed-trace generator.
func parseSkew(s string) (float64, error) {
	if s == "" || s == "uniform" {
		return -1, nil
	}
	rest, ok := strings.CutPrefix(s, "zipf:")
	if !ok {
		return 0, fmt.Errorf("want uniform or zipf:S, got %q", s)
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad zipf exponent %q", rest)
	}
	return v, nil
}

// parseInts parses a non-empty CSV list of integers, each at least lo
// (-cache takes 0, the uncached series).
func parseInts(csv string, lo int) ([]int, error) {
	var out []int
	for _, f := range strings.Split(csv, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, err
		}
		if v < lo {
			return nil, fmt.Errorf("%d out of range", v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
