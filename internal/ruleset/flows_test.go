package ruleset

import (
	"testing"
)

func TestGenerateFlowsDirected(t *testing.T) {
	rs := Generate(GenConfig{N: 32, Profile: FirewallProfile, Seed: 81, DefaultRule: false})
	flows := GenerateFlows(rs, FlowTraceConfig{Flows: 500, MeanPackets: 8, MatchFraction: 1, Seed: 82})
	if len(flows) != 500 {
		t.Fatalf("%d flows", len(flows))
	}
	for i, f := range flows {
		if f.Packets < 1 {
			t.Fatalf("flow %d has %d packets", i, f.Packets)
		}
		if rs.FirstMatch(f.Header) == -1 {
			t.Fatalf("directed flow %d matches nothing", i)
		}
	}
	// Deterministic.
	again := GenerateFlows(rs, FlowTraceConfig{Flows: 500, MeanPackets: 8, MatchFraction: 1, Seed: 82})
	for i := range flows {
		if flows[i] != again[i] {
			t.Fatalf("flow %d not deterministic", i)
		}
	}
}

func TestFlowSizesGeometric(t *testing.T) {
	rs := Generate(GenConfig{N: 8, Profile: PrefixOnly, Seed: 83})
	flows := GenerateFlows(rs, FlowTraceConfig{Flows: 5000, MeanPackets: 10, MatchFraction: 0.5, Seed: 84})
	s := Stats(flows)
	if s.MeanPackets < 7 || s.MeanPackets > 13 {
		t.Fatalf("mean flow size %.1f, want ~10", s.MeanPackets)
	}
	// Geometric: median well below mean, heavy tail above it.
	if s.P50 >= int(s.MeanPackets) {
		t.Fatalf("median %d not below mean %.1f", s.P50, s.MeanPackets)
	}
	if s.MaxPackets < 3*int(s.MeanPackets) {
		t.Fatalf("max %d shows no tail", s.MaxPackets)
	}
	if s.Flows != 5000 || s.Packets <= 0 || s.P90 < s.P50 {
		t.Fatalf("stats inconsistent: %+v", s)
	}
	if (Stats(nil) != FlowStats{}) {
		t.Fatal("empty stats not zero")
	}
}

func TestInterleavePreservesCounts(t *testing.T) {
	rs := Generate(GenConfig{N: 8, Profile: PrefixOnly, Seed: 85})
	flows := GenerateFlows(rs, FlowTraceConfig{Flows: 50, MeanPackets: 5, MatchFraction: 0.5, Seed: 86})
	trace := Interleave(flows, 87)
	want := 0
	counts := map[[13]byte]int{}
	for _, f := range flows {
		want += f.Packets
		counts[f.Header.Key()] += f.Packets
	}
	if len(trace) != want {
		t.Fatalf("trace %d packets, want %d", len(trace), want)
	}
	for _, h := range trace {
		counts[h.Key()]--
	}
	for k, c := range counts {
		if c != 0 {
			t.Fatalf("flow %v count off by %d", k, c)
		}
	}
	// Interleaving: the first len(flows) packets should not all belong to
	// one flow (round-robin-ish mixing).
	first := trace[0].Key()
	same := 0
	for _, h := range trace[:min(40, len(trace))] {
		if h.Key() == first {
			same++
		}
	}
	if same > 30 {
		t.Fatalf("trace not interleaved: %d/40 packets from one flow", same)
	}
}

func TestFlowHeadersDirectedAndDeterministic(t *testing.T) {
	rs := Generate(GenConfig{N: 32, Profile: FirewallProfile, Seed: 83, DefaultRule: false})
	pop := FlowHeaders(rs, 400, 1, 84)
	if len(pop) != 400 {
		t.Fatalf("%d headers", len(pop))
	}
	for i, h := range pop {
		if rs.FirstMatch(h) == -1 {
			t.Fatalf("directed flow header %d matches nothing", i)
		}
	}
	again := FlowHeaders(rs, 400, 1, 84)
	for i := range pop {
		if pop[i] != again[i] {
			t.Fatalf("header %d not deterministic", i)
		}
	}
	// matchFraction 0 must not be forced into rules: with this seed, some
	// uniform headers miss the 32-rule set entirely.
	misses := 0
	for _, h := range FlowHeaders(rs, 400, 0, 85) {
		if rs.FirstMatch(h) == -1 {
			misses++
		}
	}
	if misses == 0 {
		t.Fatal("uniform population never missed the ruleset")
	}
}
