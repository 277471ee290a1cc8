package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"pktclass/internal/core"
	"pktclass/internal/packet"
)

const toyWindow = 100 * time.Millisecond

func names(table []metric, keep func(metric) bool) []string {
	var out []string
	for _, m := range table {
		if keep(m) {
			out = append(out, m.name)
		}
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]float64) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Every workload, at toy scale, emits exactly the metric names of the tables
// and fails no operation.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, full := range workloads {
		sp := full.toy()
		t.Run(sp.name, func(t *testing.T) {
			res, err := runE2E(sp, 1, toyWindow, stackOpts{})
			if err != nil {
				t.Fatal(err)
			}
			want := append(names(endToEnd, func(m metric) bool { return m.reports(sp.name) }), "fail_frac")
			sort.Strings(want)
			if got := keys(res.Metrics); !reflect.DeepEqual(got, want) {
				t.Errorf("end-to-end metrics\n got %v\nwant %v", got, want)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
			}
			for _, m := range endToEnd {
				if m.harness() && res.Metrics[m.name] <= 0 {
					t.Errorf("%s = %g, want > 0", m.name, res.Metrics[m.name])
				}
			}

			dir := t.TempDir()
			layers, err := runTraced(sp, 1, 2*toyWindow, dir)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := keys(layers.Metrics), names(perLayer, func(metric) bool { return true }); !reflect.DeepEqual(got, want) {
				t.Errorf("per-layer metrics\n got %v\nwant %v", got, want)
			}
			if layers.Failed != 0 || layers.Attempted == 0 {
				t.Errorf("traced: attempted %d, failed %d", layers.Attempted, layers.Failed)
			}
			if sp.churn && (layers.Metrics["update.incremental_swaps"] == 0 || layers.Metrics["update.fallbacks"] != 0 || layers.Metrics["update.rollbacks"] != 0) {
				t.Errorf("churn swaps: %g incremental, %g fallbacks, %g rollbacks",
					layers.Metrics["update.incremental_swaps"], layers.Metrics["update.fallbacks"], layers.Metrics["update.rollbacks"])
			}
			if _, err := os.Stat(filepath.Join(dir, "trace-"+sp.name+".json")); err != nil {
				t.Error(err)
			}
		})
	}
}

// The same seed gives byte-identical inputs, another seed gives other inputs.
func TestSeedDeterminism(t *testing.T) {
	for _, full := range workloads {
		sp := full.toy()
		digest := func(seed int64) string {
			in := sp.genRules(seed)
			if err := sp.genTraffic(in, seed); err != nil {
				t.Fatal(err)
			}
			return in.digest()
		}
		if a, b := digest(1), digest(1); a != b {
			t.Errorf("%s: seed 1 digests differ: %s, %s", sp.name, a, b)
		}
		if a, c := digest(1), digest(2); a == c {
			t.Errorf("%s: seeds 1 and 2 share digest %s", sp.name, a)
		}
	}
}

// The exact counts repeat exactly from run to run.
func TestExactCountsRepeat(t *testing.T) {
	for _, name := range []string{"engine_miss", "tcam_miss", "part_large"} {
		full, _ := findWorkload(name)
		var runs [2]*result
		for i := range runs {
			var err error
			if runs[i], err = runTraced(full.toy(), 1, 2*toyWindow, t.TempDir()); err != nil {
				t.Fatal(err)
			}
		}
		nonzero := false
		for _, m := range exactCounts {
			if runs[0].Metrics[m] != runs[1].Metrics[m] {
				t.Errorf("%s: %s = %g, then %g on the same seed", name, m, runs[0].Metrics[m], runs[1].Metrics[m])
			}
			nonzero = nonzero || runs[0].Metrics[m] != 0
		}
		if !nonzero {
			t.Errorf("%s: every exact count is 0", name)
		}
	}
}

func TestFirewallRulesExpandExactly(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rs := firewallRules(64, 116, seed)
		if n, ne := rs.Len(), rs.Expand().Len(); n != 64 || ne != 116 {
			t.Errorf("seed %d: %d rules, %d entries, want 64 and 116", seed, n, ne)
		}
	}
}

// offByOne answers every packet with the next rule: the wrong engine the
// oracle check has to catch.
type offByOne struct{ core.Engine }

func (e offByOne) ClassifyBatch(hdrs []packet.Header, out []int) {
	e.Engine.(core.BatchClassifier).ClassifyBatch(hdrs, out)
	for i := range out {
		out[i]++
	}
}

func TestOracleCatchesWrongEngine(t *testing.T) {
	for _, name := range []string{"engine_miss", "cache_pressure", "churn"} {
		full, _ := findWorkload(name)
		res, err := runE2E(full.toy(), 1, toyWindow, stackOpts{
			wrap:     func(e core.Engine) core.Engine { return offByOne{e} },
			noVerify: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed == 0 || res.Metrics["fail_frac"] <= 0 {
			t.Errorf("%s: a wrong engine failed %d of %d operations", name, res.Failed, res.Attempted)
		}
	}
}

func TestCovered(t *testing.T) {
	if got := covered([][2]int64{{5, 9}, {0, 4}, {2, 6}, {20, 21}, {8, 8}}); got != 10 {
		t.Errorf("covered = %d, want 10", got)
	}
}

// BENCHMARK.json repeats the tables in metrics.go and workloads.go.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name, Unit, Better string
		Bound              float64
	}
	var f struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []jm `json:"end_to_end"`
		PerLayer  []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Paths, []string{"benchmark"}) || len(f.Command) == 0 {
		t.Errorf("paths %v, command %v", f.Paths, f.Command)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(f.Workloads), len(workloads))
	}
	for i, sp := range workloads {
		if f.Workloads[i].Name != sp.name || f.Workloads[i].Why != sp.why {
			t.Errorf("workload %d: %+v, want %s / %s", i, f.Workloads[i], sp.name, sp.why)
		}
		if len(sp.why) > 200 || strings.Contains(sp.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", sp.name)
		}
	}
	want := func(table []metric, keep func(metric) bool) []jm {
		var out []jm
		for _, m := range table {
			if keep(m) {
				better := "lower"
				if m.higher {
					better = "higher"
				}
				out = append(out, jm{m.name, m.unit, better, m.bound})
			}
		}
		return out
	}
	if w := want(endToEnd, metric.harness); !reflect.DeepEqual(f.EndToEnd, w) {
		t.Errorf("end_to_end\n got %+v\nwant %+v", f.EndToEnd, w)
	}
	if w := want(perLayer, func(metric) bool { return true }); !reflect.DeepEqual(f.PerLayer, w) {
		t.Errorf("per_layer\n got %+v\nwant %+v", f.PerLayer, w)
	}
}

func TestCompare(t *testing.T) {
	mk := func(scale float64, vary float64) *report {
		rep := &report{Env: env{GoVersion: "go", NProc: 2, GOMAXPROCS: 2, Seed: 1, Seconds: 1}, Runs: map[string][]*result{}, Layers: map[string]*result{}}
		for _, sp := range workloads {
			for r := 0; r < 3; r++ {
				m := map[string]float64{"fail_frac": 0}
				for _, em := range endToEnd {
					m[em.name] = 100
				}
				m["pkts_per_s"] = 100 * scale * (1 + vary*float64(r-1))
				rep.Runs[sp.name] = append(rep.Runs[sp.name], &result{Workload: sp.name, Metrics: m})
			}
			rep.Layers[sp.name] = &result{Metrics: map[string]float64{"tcam.entries": 928}}
		}
		return rep
	}
	dir := t.TempDir()
	write := func(name string, rep *report) string {
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent := write("parent.json", mk(1, 0.01))
	var out bytes.Buffer

	if regressed, err := compareFiles(&out, parent, write("same.json", mk(1, 0.01))); err != nil || regressed {
		t.Errorf("identical runs: regressed %v, err %v", regressed, err)
	}
	out.Reset()
	if regressed, err := compareFiles(&out, parent, write("slow.json", mk(0.7, 0.01))); err != nil || !regressed {
		t.Errorf("30%% slower: regressed %v, err %v\n%s", regressed, err, out.String())
	}
	out.Reset()
	if regressed, err := compareFiles(&out, parent, write("noisy.json", mk(0.7, 0.3))); err != nil || regressed || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("spread wider than the bound: regressed %v, err %v\n%s", regressed, err, out.String())
	}
	other := mk(1, 0.01)
	other.Env.NProc = 64
	if _, err := compareFiles(&out, parent, write("other.json", other)); err == nil {
		t.Error("compared result files from different environments")
	}
	changed := mk(1, 0.01)
	changed.Layers["tcam_miss"].Metrics["tcam.entries"] = 1000
	out.Reset()
	if _, err := compareFiles(&out, parent, write("changed.json", changed)); err != nil || !strings.Contains(out.String(), "exact count changed") {
		t.Errorf("changed exact count not reported: %v\n%s", err, out.String())
	}
}
