// Command benchmark is the repository's serving benchmark: it builds the real
// serving stack (serve.New -> steered dispatch -> worker-private flowcache ->
// engine), drives it closed-loop with traffic generated from -seed, checks
// every batch against the core.Linear oracle, and prints every metric by
// name with its unit. See README.md for the workloads and what each metric
// is expected to move.
//
//	benchmark -seed 1                       all workloads: end-to-end runs, then the traced run
//	benchmark -workload W -trace 0          one end-to-end run; last stdout line is the result object
//	benchmark -workload W -trace 1          one traced run; the per-layer metrics
//	benchmark -compare a.json b.json        gate b against a with the bounds in metrics.go
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (default: all) and print one result object")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Int("seconds", 20, "length of the measured window, and of the traced run's passes together")
		trace    = flag.String("trace", "", "with -workload: 0 = end-to-end run, 1 = traced run")
		runs     = flag.Int("runs", 1, "end-to-end runs per workload when running all (their spread is recorded)")
		outDir   = flag.String("out", "out", "directory for trace-<workload>.json and result files")
		commit   = flag.String("commit", "unknown", "commit id to record in the result file")
		compare  = flag.Bool("compare", false, "compare two result files: benchmark -compare parent.json change.json")
	)
	flag.Parse()
	// The load model is 2 clients and 2 workers on 2 processors; pin it so a
	// bigger host measures the same thing.
	runtime.GOMAXPROCS(workers)

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("usage: benchmark -compare parent.json change.json")
			break
		}
		var regressed bool
		if regressed, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && regressed {
			os.Exit(1)
		}
	case *workload != "":
		err = runOne(*workload, *seed, *seconds, *trace == "1", *outDir)
	default:
		err = runAll(*seed, *seconds, *runs, *outDir, *commit)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
}

// runOne is the harness entry point: one run of one workload, reported as a
// single JSON object on the last line of standard output.
func runOne(name string, seed int64, seconds int, traced bool, outDir string) error {
	sp, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	d := time.Duration(seconds) * time.Second
	var res *result
	var err error
	table := endToEnd
	if traced {
		table = perLayer
		res, err = runTraced(sp, seed, d, outDir)
	} else {
		res, err = runE2E(sp, seed, d, stackOpts{})
	}
	if err != nil {
		return err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]value{}}
	for _, m := range table {
		if traced || m.harness() {
			out.Metrics[m.name] = value{res.Metrics[m.name], m.unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// env is written into every result file; -compare refuses to compare files
// whose environments differ (the commit aside, which is what is compared).
type env struct {
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Commit     string `json:"commit"`
}

// report is one result file: every end-to-end run of every workload, so the
// spread travels with the medians, and one traced run per workload.
type report struct {
	Env    env                  `json:"env"`
	Runs   map[string][]*result `json:"runs"`
	Layers map[string]*result   `json:"layers"`
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// runAll runs every workload end to end (runs times each) and traced, prints
// every metric by name and unit, and writes the result file.
func runAll(seed int64, seconds, runs int, outDir, commit string) error {
	rep := &report{
		Env: env{
			GoVersion: runtime.Version(), CPU: cpuModel(), NProc: runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed, Seconds: seconds, Commit: commit,
		},
		Runs:   map[string][]*result{},
		Layers: map[string]*result{},
	}
	d := time.Duration(seconds) * time.Second
	fmt.Printf("closed loop, %d clients, %d workers, GOMAXPROCS=%d, seed %d, %d s windows\n",
		clients, workers, rep.Env.GOMAXPROCS, seed, seconds)
	for _, sp := range workloads {
		for r := 0; r < runs; r++ {
			res, err := runE2E(sp, seed, d, stackOpts{})
			if err != nil {
				return fmt.Errorf("%s: %w", sp.name, err)
			}
			rep.Runs[sp.name] = append(rep.Runs[sp.name], res)
		}
		// The traced run's four passes share about a third of a window.
		layers, err := runTraced(sp, seed, d/3, outDir)
		if err != nil {
			return fmt.Errorf("%s traced: %w", sp.name, err)
		}
		rep.Layers[sp.name] = layers
		rep.print(sp)
	}
	b, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("result-seed%d.json", seed))
	fmt.Println("wrote", path)
	return os.WriteFile(path, b, 0o644)
}

// values collects one metric across a workload's end-to-end runs.
func values(runs []*result, name string) []float64 {
	var v []float64
	for _, r := range runs {
		v = append(v, r.Metrics[name])
	}
	return v
}

func (rep *report) print(sp spec) {
	runs := rep.Runs[sp.name]
	fmt.Printf("\n== %s (%s)\n", sp.name, runs[0].Digest)
	fmt.Printf("  %-38s %-6s %14s %14s %14s\n", "end to end", "unit", "median", "min", "max")
	row := func(name, unit string, v []float64) {
		s := append([]float64(nil), v...)
		sort.Float64s(s)
		fmt.Printf("  %-38s %-6s %14.6g %14.6g %14.6g\n", name, unit, median(s), s[0], s[len(s)-1])
	}
	for _, m := range endToEnd {
		if m.reports(sp.name) {
			row(m.name, m.unit, values(runs, m.name))
		}
	}
	row("fail_frac", "ratio", values(runs, "fail_frac"))
	fmt.Printf("  %d runs, %d operations and %d latency samples in the last\n",
		len(runs), runs[len(runs)-1].Attempted, runs[len(runs)-1].Samples)
	fmt.Printf("  %-38s %-6s %14s\n", "per layer (traced run)", "unit", "value")
	for _, m := range perLayer {
		fmt.Printf("  %-38s %-6s %14.6g\n", m.name, m.unit, rep.Layers[sp.name].Metrics[m.name])
	}
}
