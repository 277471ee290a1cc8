package sim

import (
	"testing"

	"pktclass/internal/core"
	"pktclass/internal/ruleset"
	"pktclass/internal/stridebv"
	"pktclass/internal/tcam"
)

func fixtures(t testing.TB, n, packets int) (*ruleset.RuleSet, *ruleset.Expanded, []core.Engine, []ruleset.Rule) {
	t.Helper()
	rs := ruleset.Generate(ruleset.GenConfig{N: n, Profile: ruleset.FirewallProfile, Seed: 9, DefaultRule: true})
	ex := rs.Expand()
	s4, err := stridebv.New(ex, 4)
	if err != nil {
		t.Fatal(err)
	}
	return rs, ex, []core.Engine{core.NewLinear(rs), tcam.NewBehavioral(ex), s4}, rs.Rules
}

func TestClassifyBatchMatchesSequential(t *testing.T) {
	rs, _, engines, _ := fixtures(t, 64, 0)
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 1000, MatchFraction: 0.8, Seed: 3})
	for _, eng := range engines {
		for _, workers := range []int{1, 2, 4, 0} {
			br := ClassifyBatch(eng, trace, workers)
			if br.Packets != len(trace) || len(br.Results) != len(trace) {
				t.Fatalf("%s: result sizing wrong", eng.Name())
			}
			for i, h := range trace {
				if br.Results[i] != rs.FirstMatch(h) {
					t.Fatalf("%s workers=%d: packet %d wrong", eng.Name(), workers, i)
				}
			}
			if br.PacketsPerSec <= 0 {
				t.Fatalf("%s: zero rate", eng.Name())
			}
		}
	}
}

func TestClassifyBatchEmptyTrace(t *testing.T) {
	rs, _, engines, _ := fixtures(t, 8, 0)
	_ = rs
	// Every worker count, including the GOMAXPROCS default, must short-
	// circuit: no goroutines, no division games with a zero-length chunk.
	for _, workers := range []int{0, 1, 4, 100} {
		br := ClassifyBatch(engines[0], nil, workers)
		if br.Packets != 0 || len(br.Results) != 0 {
			t.Fatalf("workers=%d: empty trace handled badly: %+v", workers, br)
		}
		if br.Workers != 0 {
			t.Fatalf("workers=%d: reported %d workers for zero packets", workers, br.Workers)
		}
		if br.PacketsPerSec != 0 {
			t.Fatalf("workers=%d: nonzero rate %f for zero packets", workers, br.PacketsPerSec)
		}
	}
}

func TestClassifyBatchMoreWorkersThanPackets(t *testing.T) {
	rs, _, engines, _ := fixtures(t, 16, 0)
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 3, MatchFraction: 0.9, Seed: 6})
	for _, eng := range engines {
		br := ClassifyBatch(eng, trace, 64)
		if br.Workers != len(trace) {
			t.Fatalf("%s: workers = %d, want clamp to %d", eng.Name(), br.Workers, len(trace))
		}
		for i, h := range trace {
			if br.Results[i] != rs.FirstMatch(h) {
				t.Fatalf("%s: packet %d wrong", eng.Name(), i)
			}
		}
	}
}

func TestClassifyBatchSinglePacket(t *testing.T) {
	rs, _, engines, _ := fixtures(t, 16, 0)
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 1, MatchFraction: 1, Seed: 7})
	br := ClassifyBatch(engines[0], trace, 0)
	if br.Workers != 1 || br.Packets != 1 {
		t.Fatalf("single packet: %+v", br)
	}
	if br.Results[0] != rs.FirstMatch(trace[0]) {
		t.Fatal("single packet misclassified")
	}
}

func TestRunStrideBVPipelineThroughput(t *testing.T) {
	rs, ex, _, _ := fixtures(t, 64, 0)
	eng, err := stridebv.New(ex, 4)
	if err != nil {
		t.Fatal(err)
	}
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 2000, MatchFraction: 0.9, Seed: 4})
	hr, err := RunStrideBVPipeline(eng, trace)
	if err != nil {
		t.Fatal(err)
	}
	// Dual-port: ~2 packets/cycle at steady state.
	if hr.PacketsPerCycle < 1.8 || hr.PacketsPerCycle > 2.0 {
		t.Fatalf("PacketsPerCycle = %.3f, want ~2", hr.PacketsPerCycle)
	}
	for i, h := range trace {
		if hr.Results[i] != rs.FirstMatch(h) {
			t.Fatalf("pipeline result %d wrong", i)
		}
	}
	if hr.LatencyCycles <= 26 {
		t.Fatalf("latency %d too small", hr.LatencyCycles)
	}
}

func TestRunTCAMThroughput(t *testing.T) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 24, Profile: ruleset.PrefixOnly, Seed: 10, DefaultRule: true})
	ex := rs.Expand()
	fp := tcam.NewFPGA(ex)
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 200, MatchFraction: 0.9, Seed: 5})
	hr, err := RunTCAM(fp, trace)
	if err != nil {
		t.Fatal(err)
	}
	// TCAM searches one packet per cycle.
	if hr.PacketsPerCycle != 1.0 {
		t.Fatalf("PacketsPerCycle = %.3f, want 1", hr.PacketsPerCycle)
	}
	for i, h := range trace {
		if hr.Results[i] != rs.FirstMatch(h) {
			t.Fatalf("TCAM result %d wrong", i)
		}
	}
}

func TestEmptyTraceErrors(t *testing.T) {
	rs, ex, _, _ := fixtures(t, 8, 0)
	_ = rs
	eng, _ := stridebv.New(ex, 4)
	if _, err := RunStrideBVPipeline(eng, nil); err == nil {
		t.Fatal("empty trace accepted")
	}
	fp := tcam.NewFPGA(ex)
	if _, err := RunTCAM(fp, nil); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func BenchmarkClassifyBatchStrideBV(b *testing.B) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 512, Profile: ruleset.PrefixOnly, Seed: 1, DefaultRule: true})
	eng, err := stridebv.New(rs.Expand(), 4)
	if err != nil {
		b.Fatal(err)
	}
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 4096, MatchFraction: 0.9, Seed: 2})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ClassifyBatch(eng, trace, 0)
	}
}
