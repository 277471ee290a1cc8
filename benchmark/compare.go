package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := new(report)
	if err := json.Unmarshal(b, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// spread is a run set's (max - min) / median.
func spread(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if m := median(s); m != 0 {
		return (s[len(s)-1] - s[0]) / m
	}
	return 0
}

// allBetter reports whether every run of the change reads better than every
// run of the parent.
func allBetter(parent, change []float64, higher bool) bool {
	for _, c := range change {
		for _, p := range parent {
			if (higher && c <= p) || (!higher && c >= p) {
				return false
			}
		}
	}
	return true
}

// compareFiles prints one row per (workload, end-to-end metric) pairing and
// reports whether any regressed: the change's median is worse than the
// parent's by more than the metric's bound. A pairing whose recorded
// run-to-run spread exceeds the bound is unresolved, not unchanged — unless
// every run of the change beats every run of the parent. Any rise in
// fail_frac is a regression.
func compareFiles(w io.Writer, parentPath, changePath string) (regressed bool, err error) {
	parent, err := readReport(parentPath)
	if err != nil {
		return false, err
	}
	change, err := readReport(changePath)
	if err != nil {
		return false, err
	}
	pe, ce := parent.Env, change.Env
	pe.Commit, ce.Commit = "", ""
	if pe != ce {
		return false, fmt.Errorf("environments differ, refusing to compare:\n  %+v\n  %+v", parent.Env, change.Env)
	}
	fmt.Fprintf(w, "%-15s %-13s %13s %13s %8s %7s %7s  %s\n", "workload", "metric", "parent", "change", "worse", "spread", "bound", "verdict")
	for _, sp := range workloads {
		p, c := parent.Runs[sp.name], change.Runs[sp.name]
		if len(p) == 0 || len(c) == 0 {
			return false, fmt.Errorf("workload %s missing from a result file", sp.name)
		}
		for _, m := range endToEnd {
			if !m.reports(sp.name) {
				continue
			}
			pv, cv := values(p, m.name), values(c, m.name)
			pm, cm := median(pv), median(cv)
			worse := (cm - pm) / pm
			if m.higher {
				worse = -worse
			}
			sprd := max(spread(pv), spread(cv))
			verdict := "ok"
			switch {
			case m.bound == 0:
				verdict = "not gated"
			case sprd > m.bound && !allBetter(pv, cv, m.higher):
				verdict = "unresolved"
			case worse > m.bound:
				verdict = "REGRESSION"
				regressed = true
			}
			fmt.Fprintf(w, "%-15s %-13s %13.6g %13.6g %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				sp.name, m.name, pm, cm, 100*worse, 100*sprd, 100*m.bound, verdict)
		}
		pf, cf := median(values(p, "fail_frac")), median(values(c, "fail_frac"))
		verdict := "ok"
		if cf > pf {
			verdict = "REGRESSION"
			regressed = true
		}
		fmt.Fprintf(w, "%-15s %-13s %13.6g %13.6g %8s %7s %7s  %s\n", sp.name, "fail_frac", pf, cf, "", "", "any", verdict)
		for _, name := range exactCounts {
			if a, b := parent.layer(sp.name, name), change.layer(sp.name, name); a != b {
				fmt.Fprintf(w, "%-15s %-38s %g -> %g  (exact count changed)\n", sp.name, name, a, b)
			}
		}
	}
	return regressed, nil
}

// exactCounts are the per-layer counts that repeat exactly for a given seed
// and code; -compare reports when one differs.
var exactCounts = []string{
	"ruleset.expansion_factor", "stridebv.words_per_pkt", "stridebv.memory_bits", "tcam.entries", "partition.parts",
}

func (rep *report) layer(workload, name string) float64 {
	if r := rep.Layers[workload]; r != nil {
		return r.Metrics[name]
	}
	return 0
}
