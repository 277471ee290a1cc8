package experiments

import (
	"fmt"

	"pktclass/internal/dtree"
	"pktclass/internal/floorplan"
	"pktclass/internal/fpga"
	"pktclass/internal/metrics"
	"pktclass/internal/ruleset"
	"pktclass/internal/stridebv"
	"pktclass/internal/tcam"
	"pktclass/internal/update"
)

// Extensions beyond the paper's evaluation, implementing what its text
// defers or only argues qualitatively:
//
//   - ExtMultiPipeline: the "can be done to achieve 400G+ throughput"
//     configuration of Section IV-A2 / V-B (multiple lanes, dual-ported
//     memory sharing).
//   - ExtFeatureDependence: the paper's central premise, demonstrated —
//     a decision-tree classifier's memory varies with ruleset structure
//     at fixed N while StrideBV/TCAM memory is a closed form in N.
//   - ExtPartitionedTCAM: the related-work TCAM power optimization
//     (Section II-B) and its own feature reliance.
//   - ExtUpdateRate: dynamic update throughput, StrideBV bit-slice writes
//     vs the SRL16E 16-cycle shift path.
//   - AblationStride: the stride-length tradeoff (Section V intro) swept
//     across k = 1..8 rather than just {3, 4}.

// ExtMultiPipeline sweeps lane counts for a floorplanned distRAM k=4
// build at N=512 and reports aggregate throughput — crossing 400 Gbps is
// the paper's deferred claim.
func ExtMultiPipeline(c Config) (*metrics.Figure, error) {
	f := metrics.NewFigure("Extension: multi-pipeline scaling (distRAM, k=4, N=512, floorplanned)", "Gbps / copies / Kbit")
	tput := f.AddSeries("throughput Gbps")
	copies := f.AddSeries("memory copies")
	mem := f.AddSeries("total memory Kbit")
	for _, lanes := range []int{2, 4, 8, 12, 16} {
		m := fpga.MultiConfig{Base: fpga.StrideBVConfig{Ne: 512, K: 4, Memory: fpga.DistRAM}, Lanes: lanes}
		r, err := fpga.EvaluateStrideBVMulti(c.Device, m, floorplan.Floorplanned, c.Seed)
		if err != nil {
			return nil, fmt.Errorf("multi-pipeline lanes=%d: %w", lanes, err)
		}
		tput.Add(lanes, r.ThroughputGbps)
		copies.Add(lanes, float64(m.Copies()))
		mem.Add(lanes, r.MemoryKbit)
	}
	return f, nil
}

// ExtFeatureDependence builds the feature-reliant HiCuts tree and the two
// feature-independent engines over rulesets of identical size but
// different structure, and reports memory (KB). The engines' rows are
// constant across profiles; the tree's is not.
func ExtFeatureDependence(c Config) (*metrics.Table, error) {
	const n = 256
	t := &metrics.Table{
		Title:   fmt.Sprintf("Extension: ruleset-feature dependence of memory (N = %d, KB)", n),
		Headers: []string{"Profile", "HiCuts tree", "StrideBV k=4", "TCAM"},
	}
	for _, p := range []ruleset.Profile{ruleset.FirewallProfile, ruleset.PrefixOnly, ruleset.FeatureFree} {
		rs := ruleset.Generate(ruleset.GenConfig{N: n, Profile: p, Seed: c.Seed, DefaultRule: false})
		tree, err := dtree.New(rs, dtree.DefaultConfig())
		if err != nil {
			return nil, err
		}
		// The feature-independent engines depend only on N (comparing at
		// rule granularity, i.e. the paper's convention of sizing by N).
		sbv := fpga.StrideBVConfig{Ne: n, K: 4}
		t.AddRow(p.String(),
			fmt.Sprintf("%.1f", float64(tree.MemoryBytes())/1024),
			fmt.Sprintf("%.1f", float64(sbv.MemoryBits())/8/1024),
			fmt.Sprintf("%.1f", float64(tcam.MemoryBits(n, 104))/8/1024))
	}
	return t, nil
}

// ExtPartitionedTCAM reports the related-work power optimization: active
// entries per search and the saving factor, per ruleset profile —
// demonstrating that the optimization itself relies on ruleset features.
func ExtPartitionedTCAM(c Config) (*metrics.Table, error) {
	const n = 512
	t := &metrics.Table{
		Title:   fmt.Sprintf("Extension: partitioned TCAM power optimization (N = %d)", n),
		Headers: []string{"Profile", "Stored entries", "Mean active/search", "Power saving"},
	}
	for _, p := range []ruleset.Profile{ruleset.FirewallProfile, ruleset.PrefixOnly, ruleset.FeatureFree} {
		rs := ruleset.Generate(ruleset.GenConfig{N: n, Profile: p, Seed: c.Seed, DefaultRule: false})
		ex := rs.Expand()
		part, err := tcam.NewPartitioned(ex, tcam.DefaultPartitionConfig())
		if err != nil {
			return nil, err
		}
		t.AddRow(p.String(),
			fmt.Sprintf("%d (of %d)", part.StoredEntries(), ex.Len()),
			fmt.Sprintf("%.1f", part.MeanActiveEntries()),
			fmt.Sprintf("%.1fx", part.PowerSaving()))
	}
	return t, nil
}

// ExtUpdateRate compares sustainable dynamic-update rates at each
// engine's own modeled clock.
func ExtUpdateRate(c Config) (*metrics.Table, error) {
	const n = 512
	t := &metrics.Table{
		Title:   fmt.Sprintf("Extension: dynamic rule updates (N = %d)", n),
		Headers: []string{"Engine", "Latency (cycles)", "Port cycles/update", "Updates/s at modeled clock"},
	}
	// Both engines take the same update stream over the same ruleset.
	rs := ruleset.Generate(ruleset.GenConfig{N: n, Profile: ruleset.PrefixOnly, Seed: c.Seed, DefaultRule: true})
	ops, err := update.GenerateOps(rs, 200, c.Seed)
	if err != nil {
		return nil, err
	}
	next, err := update.ApplyToRuleSet(rs, ops)
	if err != nil {
		return nil, err
	}
	eng, err := stridebv.New(rs.Expand(), 4)
	if err != nil {
		return nil, err
	}
	updated, costS, err := update.ApplyToStrideBV(eng, ops)
	if err != nil {
		return nil, err
	}
	if err := update.VerifyAfterUpdates(next, updated.Classify, c.Seed+2); err != nil {
		return nil, err
	}
	tmS, _, err := fpga.StrideBVTiming(c.Device, fpga.StrideBVConfig{Ne: n, K: 4, Memory: fpga.DistRAM}, floorplan.Automatic, c.Seed)
	if err != nil {
		return nil, err
	}
	t.AddRow("StrideBV (k=4, distRAM)",
		fmt.Sprint(costS.LatencyCycles),
		fmt.Sprintf("%.1f", float64(costS.OccupancyCycles)/float64(costS.Ops)),
		fmt.Sprintf("%.2e", costS.UpdatesPerSecond(tmS.ClockMHz)))

	fp := tcam.NewFPGA(rs.Expand())
	costT, err := update.ApplyToTCAM(fp, ops)
	if err != nil {
		return nil, err
	}
	if err := update.VerifyAfterUpdates(next, fp.Classify, c.Seed+3); err != nil {
		return nil, err
	}
	tmT, _, err := fpga.TCAMTiming(c.Device, fpga.TCAMConfig{Ne: n}, c.Seed)
	if err != nil {
		return nil, err
	}
	t.AddRow("TCAM-FPGA (SRL16E)",
		fmt.Sprint(costT.LatencyCycles),
		fmt.Sprintf("%.1f", float64(costT.OccupancyCycles)/float64(costT.Ops)),
		fmt.Sprintf("%.2e", costT.UpdatesPerSecond(tmT.ClockMHz)))
	return t, nil
}

// ExtModular sweeps the module width of the partitioned-vector StrideBV
// at N = 2048 (where the monolithic pipeline's clock has sagged the most),
// showing the clock recovering as stage buses shrink — the journal-line
// "modular" scalability result, verified functionally by
// stridebv.Modular's differential tests.
func ExtModular(c Config) (*metrics.Figure, error) {
	const n = 2048
	f := metrics.NewFigure("Extension: modular StrideBV at N = 2048 (distRAM, k=4, floorplanned)", "per-width metrics")
	tput := f.AddSeries("throughput Gbps")
	clock := f.AddSeries("clock MHz")
	slices := f.AddSeries("% slices")
	for _, width := range []int{256, 512, 1024, 2048} {
		r, err := fpga.EvaluateStrideBVModular(c.Device,
			fpga.ModularConfig{Ne: n, K: 4, Memory: fpga.DistRAM, ModuleWidth: width},
			floorplan.Floorplanned, c.Seed)
		if err != nil {
			return nil, fmt.Errorf("modular m=%d: %w", width, err)
		}
		tput.Add(width, r.ThroughputGbps)
		clock.Add(width, r.Timing.ClockMHz)
		slices.Add(width, r.Utilization.SlicePct)
	}
	return f, nil
}

// ExtLatency reports packet latency through each engine — the price
// StrideBV pays for its pipelined throughput (Section III-A: increased
// pipeline length means "slightly increased packet latency"), against
// TCAM's O(1) search.
func ExtLatency(c Config) (*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "Extension: packet latency",
		Headers: []string{"N", "StrideBV k=3 (cycles / ns)", "StrideBV k=4 (cycles / ns)", "TCAM (cycles / ns)"},
	}
	for _, n := range c.ns() {
		row := []string{fmt.Sprint(n)}
		for _, k := range []int{3, 4} {
			cfg := fpga.StrideBVConfig{Ne: n, K: k, Memory: fpga.DistRAM}
			tm, _, err := fpga.StrideBVTiming(c.Device, cfg, floorplan.Automatic, c.Seed)
			if err != nil {
				return nil, err
			}
			// Pipeline stages plus the PPE depth (cycle-accurate model's
			// latency; see stridebv.Pipeline.Latency).
			rs := ruleset.Generate(ruleset.GenConfig{N: minInt(n, 64), Profile: ruleset.PrefixOnly, Seed: c.Seed, DefaultRule: true})
			eng, err := stridebv.New(rs.Expand(), k)
			if err != nil {
				return nil, err
			}
			cycles := stridebv.NewPipeline(eng).Latency() + peDepthDelta(n, rs.Expand().Len())
			row = append(row, fmt.Sprintf("%d / %.0f", cycles, float64(cycles)*1000/tm.ClockMHz))
		}
		tmT, _, err := fpga.TCAMTiming(c.Device, fpga.TCAMConfig{Ne: n}, c.Seed)
		if err != nil {
			return nil, err
		}
		// Registered input + single-cycle compare + registered output.
		const tcamCycles = 3
		row = append(row, fmt.Sprintf("%d / %.0f", tcamCycles, float64(tcamCycles)*1000/tmT.ClockMHz))
		t.AddRow(row...)
	}
	return t, nil
}

// peDepthDelta corrects a small-engine PPE depth to the depth an N-entry
// engine would have (the latency table sweeps N without building huge
// engines).
func peDepthDelta(n, built int) int {
	return peStages(n) - peStages(built)
}

func peStages(n int) int {
	s := 0
	for c := 1; c < n; c *= 2 {
		s++
	}
	if s == 0 {
		s = 1
	}
	return s
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// AblationStride sweeps the stride length k = 1..8 at N = 512, exposing
// the memory/stage/resource/clock tradeoff the paper balances at k ∈ {3,4}.
func AblationStride(c Config) (*metrics.Figure, error) {
	f := metrics.NewFigure("Ablation: stride length k at N = 512 (distRAM, automatic)", "per-k metrics")
	mem := f.AddSeries("memory Kbit")
	stages := f.AddSeries("pipeline stages")
	slices := f.AddSeries("% slices")
	tput := f.AddSeries("throughput Gbps")
	for k := 1; k <= 8; k++ {
		cfg := fpga.StrideBVConfig{Ne: 512, K: k, Memory: fpga.DistRAM}
		r, err := fpga.EvaluateStrideBV(c.Device, cfg, floorplan.Automatic, c.Seed)
		if err != nil {
			return nil, fmt.Errorf("ablation k=%d: %w", k, err)
		}
		mem.Add(k, r.MemoryKbit)
		stages.Add(k, float64(cfg.Stages()))
		slices.Add(k, r.Utilization.SlicePct)
		tput.Add(k, r.ThroughputGbps)
	}
	return f, nil
}
