package experiments

import (
	"fmt"
	"strings"

	"pktclass/internal/core"
	"pktclass/internal/floorplan"
	"pktclass/internal/fpga"
	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
	"pktclass/internal/stridebv"
	"pktclass/internal/tcam"
)

// CompareConfig parameterizes a head-to-head evaluation of the two
// ruleset-feature-independent engines on one ruleset size.
type CompareConfig struct {
	// Ruleset under test; its ternary expansion defines the hardware entry
	// count Ne.
	RuleSet *ruleset.RuleSet
	// Strides evaluated for StrideBV (the paper uses {3, 4}).
	Strides []int
	// Memories evaluated for StrideBV stage memory.
	Memories []fpga.MemoryKind
	// Mode is the placement mode for StrideBV (the paper's Fig 4 uses
	// Automatic; Figs 5-6 contrast it with Floorplanned).
	Mode floorplan.Mode
	// Device is the target FPGA.
	Device fpga.Device
	// Seed feeds placement and verification.
	Seed int64
	// VerifyTrace, when non-empty, is classified by every engine and
	// cross-checked against the linear reference before reporting.
	VerifyTrace []packet.Header
}

// Candidate is one engine configuration's outcome in a comparison.
type Candidate struct {
	Name     string
	Report   fpga.Report
	IsStride bool
	Stride   int
	Memory   fpga.MemoryKind
}

// Comparison is the full head-to-head result for one ruleset.
type Comparison struct {
	N          int // rules
	Ne         int // ternary entries
	Candidates []Candidate
	// ASICTCAMWatts is the paper's Section IV-C reference point.
	ASICTCAMWatts float64
}

// Compare builds both engines over the ruleset, verifies them against the
// linear reference, evaluates their hardware models, and returns the
// paper's comparison table for this N.
func Compare(cfg CompareConfig) (*Comparison, error) {
	if cfg.RuleSet == nil || cfg.RuleSet.Len() == 0 {
		return nil, fmt.Errorf("experiments: empty ruleset")
	}
	if len(cfg.Strides) == 0 {
		cfg.Strides = []int{3, 4}
	}
	if len(cfg.Memories) == 0 {
		cfg.Memories = []fpga.MemoryKind{fpga.DistRAM, fpga.BlockRAM}
	}
	ex := cfg.RuleSet.Expand()
	ref := core.NewLinear(cfg.RuleSet)
	cmp := &Comparison{N: cfg.RuleSet.Len(), Ne: ex.Len()}

	verify := func(eng core.Engine) error {
		if len(cfg.VerifyTrace) == 0 {
			return nil
		}
		if ms := core.Verify(ref, eng, cfg.VerifyTrace); len(ms) > 0 {
			return fmt.Errorf("experiments: %s failed verification: %s", eng.Name(), ms[0])
		}
		return nil
	}

	for _, k := range cfg.Strides {
		eng, err := stridebv.New(ex, k)
		if err != nil {
			return nil, err
		}
		if err := verify(eng); err != nil {
			return nil, err
		}
		for _, mem := range cfg.Memories {
			c := fpga.StrideBVConfig{Ne: ex.Len(), K: k, Memory: mem}
			rep, err := fpga.EvaluateStrideBV(cfg.Device, c, cfg.Mode, cfg.Seed)
			if err != nil {
				return nil, fmt.Errorf("experiments: stridebv k=%d %v: %w", k, mem, err)
			}
			cmp.Candidates = append(cmp.Candidates, Candidate{
				Name:     fmt.Sprintf("StrideBV (k=%d) %s", k, mem),
				Report:   rep,
				IsStride: true,
				Stride:   k,
				Memory:   mem,
			})
		}
	}
	teng := tcam.NewBehavioral(ex)
	if err := verify(teng); err != nil {
		return nil, err
	}
	trep, err := fpga.EvaluateTCAM(cfg.Device, fpga.TCAMConfig{Ne: ex.Len()}, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: tcam: %w", err)
	}
	cmp.Candidates = append(cmp.Candidates, Candidate{Name: "TCAM-FPGA", Report: trep})
	cmp.ASICTCAMWatts = tcam.ASICPowerModel(ex.Len())
	return cmp, nil
}

// Best returns the candidate maximizing throughput per watt (the paper's
// overall conclusion criterion).
func (c *Comparison) Best() Candidate {
	best := c.Candidates[0]
	bestScore := best.Report.ThroughputGbps / best.Report.Power.TotalW
	for _, cand := range c.Candidates[1:] {
		if s := cand.Report.ThroughputGbps / cand.Report.Power.TotalW; s > bestScore {
			best, bestScore = cand, s
		}
	}
	return best
}

// String renders the comparison as a fixed-width table.
func (c *Comparison) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "N=%d rules (%d ternary entries), ASIC TCAM reference %.2f W\n", c.N, c.Ne, c.ASICTCAMWatts)
	fmt.Fprintf(&b, "%-24s %10s %10s %12s %10s %12s\n",
		"engine", "clock MHz", "Gbps", "mem Kbit", "slice %", "mW/Gbps")
	for _, cand := range c.Candidates {
		r := cand.Report
		fmt.Fprintf(&b, "%-24s %10.1f %10.1f %12.0f %10.1f %12.1f\n",
			cand.Name, r.Timing.ClockMHz, r.ThroughputGbps, r.MemoryKbit,
			r.Utilization.SlicePct, r.PowerEffMWPerGbps)
	}
	return b.String()
}
