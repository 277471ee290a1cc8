// The bench subcommand: measure the software classification rate of each
// engine's batched fast path over synthetic rulesets at the paper's sizes,
// optionally fronted by the exact-match flow cache under uniform or Zipf
// flow-burst traffic, and optionally emit a BENCH_*.json snapshot so
// successive revisions can track pkts/sec, ns/pkt and allocs/pkt over
// time. -compare diffs two snapshots per configuration.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"sort"
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

// benchResult is one (engine, stride, ruleset size, cache, skew)
// measurement.
type benchResult struct {
	Engine       string  `json:"engine"`
	Rules        int     `json:"rules"`
	Stride       int     `json:"stride,omitempty"`
	BatchSize    int     `json:"batch_size"`
	CacheEntries int     `json:"cache_entries,omitempty"`
	Skew         string  `json:"skew,omitempty"`
	Splitter     string  `json:"splitter,omitempty"`
	Partitions   int     `json:"partitions,omitempty"`
	PrefixBits   int     `json:"prefix_bits,omitempty"`
	HitRate      float64 `json:"hit_rate,omitempty"`
	NsPerPkt     float64 `json:"ns_per_pkt"`
	PktsPerSec   float64 `json:"pkts_per_sec"`
	AllocsPerPkt float64 `json:"allocs_per_pkt"`
}

// key identifies a configuration across snapshots for -compare. The
// partition fields are appended only when set, so keys written by older
// snapshots (which predate the partitioned engine) still match.
func (r benchResult) key() string {
	k := fmt.Sprintf("%s k=%d N=%d batch=%d cache=%d skew=%s",
		r.Engine, r.Stride, r.Rules, r.BatchSize, r.CacheEntries, r.Skew)
	if r.Splitter != "" || r.Partitions != 0 || r.PrefixBits != 0 {
		k += fmt.Sprintf(" split=%s parts=%d pb=%d", r.Splitter, r.Partitions, r.PrefixBits)
	}
	return k
}

// benchSnapshot is the BENCH_*.json document. The environment header
// (CPU, GOMAXPROCS, commit) makes snapshots from different machines and
// revisions comparable as a trajectory rather than bare numbers.
type benchSnapshot struct {
	Date       string        `json:"date"`
	Go         string        `json:"go"`
	CPU        string        `json:"cpu,omitempty"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Commit     string        `json:"commit,omitempty"`
	Profile    string        `json:"profile"`
	Results    []benchResult `json:"results"`
	// Churn holds -churn mode's update-throughput measurements (empty for
	// classification-only snapshots).
	Churn []churnResult `json:"churn,omitempty"`
	// Scaling holds -scaling mode's worker sweep (aggregate throughput and
	// efficiency per worker count on the steered service).
	Scaling []scalingResult `json:"scaling,omitempty"`
}

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
		jsonOut    = fs.Bool("json", false, "emit the snapshot as JSON on stdout")
		outPath    = fs.String("out", "", "write the JSON snapshot to this file (implies -json)")
		compare    = fs.Bool("compare", false, "compare two snapshot files (old.json new.json) instead of benchmarking")
		maxRegress = fs.Float64("max-regress", 0, "with -compare: exit non-zero when a gated config's ns/pkt regresses by more than this percent (0 disables the gate)")
		gateCSV    = fs.String("gate", "stridebv,tcam,cached", "with -compare: engine names subject to -max-regress ('cached' gates every cache-fronted series)")
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
		allowEnv   = fs.Bool("allow-env-mismatch", false, "with -compare: proceed despite differing cpu/gomaxprocs environment headers (deltas are then not comparable; the gate still applies)")
	)
	fs.Parse(args)
	if *compare {
		if fs.NArg() != 2 {
			log.Fatal("pclass bench -compare needs exactly two snapshot files: old.json new.json")
		}
		if err := compareSnapshots(fs.Arg(0), fs.Arg(1), *maxRegress, *gateCSV, *allowEnv); err != nil {
			log.Fatal(err)
		}
		return
	}
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

	snap := benchSnapshot{
		Date:       time.Now().UTC().Format("2006-01-02"),
		Go:         runtime.Version(),
		CPU:        cpuModel(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     gitCommit(),
		Profile:    *profile,
	}
	if *scaling {
		wl, err := scalingWorkerList(*scaleCSV)
		if err != nil {
			log.Fatalf("-scale-workers: %v", err)
		}
		scfg := scalingConfig{
			traffic: tr, profile: prof, skew: *skew, seed: *seedFlag, stride: 4, dur: *scaleDur,
		}
		if len(ks) > 0 {
			scfg.stride = ks[0]
		}
		for _, name := range strings.Split(*engines, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			for _, n := range ns {
				for _, cacheN := range caches {
					scfg.cache = cacheN
					rows, err := runScaling(name, n, wl, scfg)
					if err != nil {
						log.Fatal(err)
					}
					snap.Scaling = append(snap.Scaling, rows...)
					if !*jsonOut && *outPath == "" {
						for _, r := range rows {
							printScalingRow(r)
						}
					}
				}
			}
		}
		var below []string
		for _, r := range snap.Scaling {
			if *minEff > 0 && r.Workers > 1 && r.Efficiency < *minEff {
				below = append(below, fmt.Sprintf("%s N=%d workers=%d: efficiency %.2f < %.2f",
					r.Engine, r.Rules, r.Workers, r.Efficiency, *minEff))
			}
		}
		if len(below) > 0 {
			for _, b := range below {
				fmt.Println("SCALING", b)
			}
			log.Fatalf("bench: %d scaling point(s) below the -min-efficiency floor", len(below))
		}
	} else if *churnFlag {
		ccfg := churnConfig{
			stride: 4, workers: *workers, batch: 256, opsPerSwap: *churnOps,
			dur: *churnDur, verify: *verifyPkts, seed: *seedFlag,
		}
		for _, name := range strings.Split(*engines, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			for _, n := range ns {
				for _, incremental := range []bool{true, false} {
					r, err := churnOne(name, n, incremental, ccfg)
					if err != nil {
						log.Fatalf("churn %s N=%d: %v", name, n, err)
					}
					snap.Churn = append(snap.Churn, r)
					if !*jsonOut && *outPath == "" {
						printChurnRow(r)
					}
				}
			}
		}
	} else {
		for _, name := range strings.Split(*engines, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			// Only the stride-parameterized engines sweep k; the rest run
			// once per size with the stride recorded as 0.
			engKs := []int{0}
			if name == "stridebv" || name == "rangebv" {
				engKs = ks
			}
			for _, k := range engKs {
				for _, n := range ns {
					for _, cacheN := range caches {
						cfg := benchConfig{
							traffic: tr, profile: prof, cache: cacheN, skew: *skew, seed: *seedFlag,
							splitter: *splitter, partitions: *partsFlag, prefixBits: *prefixBits,
							verify: *diffVerify,
						}
						r, err := benchOne(name, k, n, cfg)
						if err != nil {
							log.Fatalf("%s N=%d: %v", name, n, err)
						}
						snap.Results = append(snap.Results, r)
						if !*jsonOut && *outPath == "" {
							printBenchRow(r)
						}
					}
				}
			}
		}
	}

	if *outPath != "" || *jsonOut {
		doc, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		doc = append(doc, '\n')
		if *outPath != "" {
			if err := os.WriteFile(*outPath, doc, 0o644); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote %d results to %s\n", len(snap.Results)+len(snap.Churn)+len(snap.Scaling), *outPath)
			return
		}
		os.Stdout.Write(doc)
	}
}

type benchConfig struct {
	traffic    traffic
	profile    ruleset.Profile
	cache      int
	skew       string
	seed       int64
	splitter   string
	partitions int
	prefixBits int
	// verify > 0 differentially checks the engine against the linear
	// reference over that many headers before timing anything.
	verify int
}

// benchOne measures one engine configuration with the testing package's
// adaptive benchmark loop: each op classifies a whole batch through the
// engine's native ClassifyBatch path (or the generic fallback), with the
// flow cache in front when -cache is set.
func benchOne(name string, stride, rules int, cfg benchConfig) (benchResult, error) {
	rs := ruleset.Generate(ruleset.GenConfig{N: rules, Profile: cfg.profile, Seed: cfg.seed, DefaultRule: true})
	buildStride := stride
	if buildStride == 0 {
		buildStride = 4
	}
	eng, err := cli.BuildEngineOpts(rs, name, cli.Options{
		Stride:     buildStride,
		Partitions: cfg.partitions,
		Splitter:   cfg.splitter,
		PrefixBits: cfg.prefixBits,
	})
	if err != nil {
		return benchResult{}, err
	}
	if cfg.verify > 0 {
		if err := verifyAgainstLinear(eng, rs, cfg.verify, cfg.seed+7); err != nil {
			return benchResult{}, err
		}
	}
	trace, err := cfg.traffic.generate(rs, cfg.seed+1)
	if err != nil {
		return benchResult{}, err
	}
	var cache *flowcache.Cache
	if cfg.cache > 0 {
		cache = flowcache.New(flowcache.Config{Entries: cfg.cache})
		eng = core.NewCached(eng, cache)
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
	r := benchResult{
		Engine:       name,
		Rules:        rules,
		Stride:       stride,
		BatchSize:    cfg.traffic.count,
		CacheEntries: cfg.cache,
		NsPerPkt:     nsPerPkt,
		AllocsPerPkt: float64(br.AllocsPerOp()) / float64(len(trace)),
	}
	if cfg.traffic.zipfS >= 0 || cfg.cache > 0 {
		r.Skew = cfg.skew
	}
	// Partition knobs only describe the partitioned engines; recording them
	// on flat engines would fork their snapshot keys for no reason.
	if strings.HasPrefix(name, "part-") {
		r.Splitter = cfg.splitter
		r.Partitions = cfg.partitions
		r.PrefixBits = cfg.prefixBits
	}
	if cache != nil {
		// Steady-state hit rate: the warm-up pass absorbs the cold misses.
		st := cache.Stats()
		if lookups := (st.Hits - warm.Hits) + (st.Misses - warm.Misses); lookups > 0 {
			r.HitRate = float64(st.Hits-warm.Hits) / float64(lookups)
		}
	}
	if nsPerPkt > 0 {
		r.PktsPerSec = 1e9 / nsPerPkt
	}
	return r, nil
}

// verifyAgainstLinear differentially checks an engine against the
// priority-ordered linear sweep of the same ruleset before any timing
// starts — the -verify-diff gate CI leans on at the large-N sizes where
// unit tests are too slow to build engines twice. Both the single-packet
// and batched paths must agree with the reference on a directed trace
// (headers steered into rule regions) plus uniform-random headers.
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

// cpuModel reads the CPU model name (Linux /proc/cpuinfo; other platforms
// fall back to the architecture).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				if _, v, ok := strings.Cut(name, ":"); ok {
					return strings.TrimSpace(v)
				}
			}
		}
	}
	return runtime.GOARCH
}

// gitCommit reports the working tree's short commit hash, empty outside a
// repository.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// compareSnapshots prints per-configuration ns/pkt deltas between two
// snapshot files, so a sequence of BENCH_*.json files reads as a
// trajectory. With maxRegress > 0 it becomes CI's regression gate: any
// configuration whose engine is named in gateCSV (or, via the special name
// "cached", any cache-fronted series) that slows down by more than
// maxRegress percent fails the comparison. New and vanished configurations
// never fail the gate — only measured regressions do — but two snapshots
// with no configuration in common fail outright.
//
// Snapshots measured on different hardware or at different GOMAXPROCS are
// not comparable: the "regression" would be the machine, not the code.
// When the environment headers disagree the comparison refuses outright
// unless allowEnvMismatch is set, which downgrades the refusal to a loud
// warning (headers missing on either side only warn — old snapshots
// predate them).
func compareSnapshots(oldPath, newPath string, maxRegress float64, gateCSV string, allowEnvMismatch bool) error {
	load := func(path string) (benchSnapshot, error) {
		var s benchSnapshot
		data, err := os.ReadFile(path)
		if err != nil {
			return s, err
		}
		if err := json.Unmarshal(data, &s); err != nil {
			return s, fmt.Errorf("%s: %w", path, err)
		}
		return s, nil
	}
	oldSnap, err := load(oldPath)
	if err != nil {
		return err
	}
	newSnap, err := load(newPath)
	if err != nil {
		return err
	}
	fmt.Printf("old: %s  go %s  commit %s  cpu %s  gomaxprocs %d\n", oldSnap.Date, oldSnap.Go, orDash(oldSnap.Commit), orDash(oldSnap.CPU), oldSnap.GOMAXPROCS)
	fmt.Printf("new: %s  go %s  commit %s  cpu %s  gomaxprocs %d\n\n", newSnap.Date, newSnap.Go, orDash(newSnap.Commit), orDash(newSnap.CPU), newSnap.GOMAXPROCS)
	if msg := envMismatch(oldSnap, newSnap); msg != "" {
		if !allowEnvMismatch {
			return fmt.Errorf("bench: snapshots are not comparable: %s (rerun with -allow-env-mismatch to diff anyway)", msg)
		}
		fmt.Printf("WARNING: %s — deltas below compare machines, not code\n\n", msg)
	}
	oldBy := make(map[string]benchResult, len(oldSnap.Results))
	for _, r := range oldSnap.Results {
		oldBy[r.key()] = r
	}
	matched := make(map[string]bool)
	keys := make([]string, 0, len(newSnap.Results))
	byKey := make(map[string]benchResult, len(newSnap.Results))
	for _, r := range newSnap.Results {
		keys = append(keys, r.key())
		byKey[r.key()] = r
	}
	gated := make(map[string]bool)
	for _, g := range strings.Split(gateCSV, ",") {
		if g = strings.TrimSpace(g); g != "" {
			gated[g] = true
		}
	}
	inGate := func(r benchResult) bool {
		return gated[r.Engine] || (gated["cached"] && r.CacheEntries > 0)
	}
	var failures []string
	sort.Strings(keys)
	fmt.Printf("%-52s %12s %12s %9s\n", "config", "old ns/pkt", "new ns/pkt", "delta")
	for _, k := range keys {
		nr := byKey[k]
		or, ok := oldBy[k]
		if !ok {
			fmt.Printf("%-52s %12s %12.1f %9s\n", k, "-", nr.NsPerPkt, "new")
			continue
		}
		matched[k] = true
		delta := "n/a"
		if or.NsPerPkt > 0 {
			pct := 100 * (nr.NsPerPkt - or.NsPerPkt) / or.NsPerPkt
			delta = fmt.Sprintf("%+.1f%%", pct)
			if maxRegress > 0 && pct > maxRegress && inGate(nr) {
				failures = append(failures, fmt.Sprintf("%s: %+.1f%% (limit %+.1f%%)", k, pct, maxRegress))
			}
		}
		fmt.Printf("%-52s %12.1f %12.1f %9s\n", k, or.NsPerPkt, nr.NsPerPkt, delta)
	}
	for _, r := range oldSnap.Results {
		if !matched[r.key()] {
			fmt.Printf("%-52s %12.1f %12s %9s\n", r.key(), r.NsPerPkt, "-", "gone")
		}
	}
	if len(matched) == 0 {
		// A baseline with no row in common (a scaling- or churn-only
		// snapshot, a renamed series) would otherwise pass by comparing
		// nothing.
		return fmt.Errorf("bench: %s and %s share no configuration: nothing was compared", oldPath, newPath)
	}
	if len(failures) > 0 {
		fmt.Println()
		for _, f := range failures {
			fmt.Println("REGRESSION", f)
		}
		return fmt.Errorf("bench: %d gated configuration(s) regressed beyond %.1f%%", len(failures), maxRegress)
	}
	return nil
}

// envMismatch reports why two snapshots' environments are not comparable
// ("" when they are). Only populated headers disagree: snapshots written
// before the env header existed carry zero values and merely can't vouch
// for themselves.
func envMismatch(oldSnap, newSnap benchSnapshot) string {
	if oldSnap.GOMAXPROCS != 0 && newSnap.GOMAXPROCS != 0 && oldSnap.GOMAXPROCS != newSnap.GOMAXPROCS {
		return fmt.Sprintf("gomaxprocs %d vs %d", oldSnap.GOMAXPROCS, newSnap.GOMAXPROCS)
	}
	if oldSnap.CPU != "" && newSnap.CPU != "" && oldSnap.CPU != newSnap.CPU {
		return fmt.Sprintf("cpu %q vs %q", oldSnap.CPU, newSnap.CPU)
	}
	return ""
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func printBenchRow(r benchResult) {
	label := r.Engine
	if r.Stride > 0 {
		label = fmt.Sprintf("%s-k%d", r.Engine, r.Stride)
	}
	if r.CacheEntries > 0 {
		label = "cached-" + label
	}
	fmt.Printf("%-20s N=%-5d %10.1f ns/pkt %14.0f pkt/s %8.3f allocs/pkt",
		label, r.Rules, r.NsPerPkt, r.PktsPerSec, r.AllocsPerPkt)
	if r.CacheEntries > 0 {
		fmt.Printf("  %5.1f%% hits", 100*r.HitRate)
	}
	fmt.Println()
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
