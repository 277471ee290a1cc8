package stridebv

import (
	"testing"

	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
)

func TestPipelineMatchesFunctional(t *testing.T) {
	rs, ex := genSet(t, 40, ruleset.FirewallProfile, 21)
	for _, k := range []int{3, 4} {
		e, err := New(ex, k)
		if err != nil {
			t.Fatal(err)
		}
		p := NewPipeline(e)
		trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 333, MatchFraction: 0.8, Seed: 7})
		keys := make([]packet.Key, len(trace))
		for i, h := range trace {
			keys[i] = h.Key()
		}
		results, _ := p.Run(keys)
		for i, h := range trace {
			if want := e.Classify(h); results[i] != want {
				t.Fatalf("k=%d packet %d: pipeline=%d functional=%d", k, i, results[i], want)
			}
		}
	}
}

func TestPipelineDualPortThroughput(t *testing.T) {
	// Steady state must sustain Ports packets per cycle: cycles ≈
	// ceil(count/2) + latency.
	rs, ex := genSet(t, 64, ruleset.PrefixOnly, 22)
	e, err := New(ex, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(e)
	const count = 1000
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: count, MatchFraction: 0.9, Seed: 8})
	keys := make([]packet.Key, count)
	for i, h := range trace {
		keys[i] = h.Key()
	}
	_, cycles := p.Run(keys)
	minCycles := int64(count / Ports)
	maxCycles := minCycles + int64(p.Latency()) + 2
	if cycles < minCycles || cycles > maxCycles {
		t.Fatalf("cycles = %d, want in [%d,%d]", cycles, minCycles, maxCycles)
	}
}

func TestPipelineLatency(t *testing.T) {
	_, ex := genSet(t, 128, ruleset.PrefixOnly, 23)
	e, err := New(ex, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(e)
	// stages=26 + ceil(log2 Ne) for the PPE.
	if p.Latency() < 26+7 {
		t.Fatalf("latency %d suspiciously small", p.Latency())
	}
	// Single packet: result must appear after exactly Latency()+1 steps.
	h := ruleset.GenerateTrace(loadSet(t, ex), ruleset.TraceConfig{Count: 1, MatchFraction: 1, Seed: 1})[0]
	outs := p.Step([]Input{{Key: h.Key(), Token: 0}})
	steps := 1
	for len(outs) == 0 {
		outs = p.Step(nil)
		steps++
	}
	if steps != p.Latency()+1 {
		t.Fatalf("result after %d steps, want %d", steps, p.Latency()+1)
	}
}

func loadSet(t *testing.T, ex *ruleset.Expanded) *ruleset.RuleSet {
	t.Helper()
	// Rebuild a ruleset view for trace generation from the parent count.
	rs := ruleset.Generate(ruleset.GenConfig{N: ex.NumRules, Profile: ruleset.PrefixOnly, Seed: 23, DefaultRule: true})
	return rs
}

func TestPipelineTooManyInputsPanics(t *testing.T) {
	_, ex := genSet(t, 8, ruleset.PrefixOnly, 24)
	e, _ := New(ex, 4)
	p := NewPipeline(e)
	defer func() {
		if recover() == nil {
			t.Fatal("3 inputs accepted on a 2-port pipeline")
		}
	}()
	p.Step(make([]Input, 3))
}

func TestPipelineNoMatch(t *testing.T) {
	r := ruleset.Rule{
		SIP: ruleset.Prefix{Value: 0x01020304, Bits: 32, Len: 32},
		DIP: ruleset.Prefix{Bits: 32}, SP: ruleset.FullPortRange,
		DP: ruleset.FullPortRange, Proto: ruleset.AnyProtocol,
	}
	ex := ruleset.New([]ruleset.Rule{r}).Expand()
	e, err := New(ex, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(e)
	miss := packet.Header{SIP: 0x0A0A0A0A}
	results, _ := p.Run([]packet.Key{miss.Key()})
	if results[0] != -1 {
		t.Fatalf("miss classified as %d", results[0])
	}
}

func TestPipelineInterleavedBatches(t *testing.T) {
	// Issue irregular batch sizes (0, 1, 2) and verify ordering via tokens.
	rs, ex := genSet(t, 32, ruleset.FirewallProfile, 25)
	e, err := New(ex, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(e)
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 60, MatchFraction: 0.9, Seed: 9})
	var outs []Output
	next := 0
	pattern := []int{2, 0, 1, 2, 2, 0, 0, 1}
	for step := 0; next < len(trace); step++ {
		sz := pattern[step%len(pattern)]
		if sz > len(trace)-next {
			sz = len(trace) - next
		}
		batch := make([]Input, sz)
		for j := 0; j < sz; j++ {
			batch[j] = Input{Key: trace[next].Key(), Token: next}
			next++
		}
		outs = append(outs, p.Step(batch)...)
	}
	outs = append(outs, p.Drain()...)
	if len(outs) != len(trace) {
		t.Fatalf("%d outputs for %d inputs", len(outs), len(trace))
	}
	seen := make(map[int]bool)
	for _, o := range outs {
		idx := o.Token.(int)
		if seen[idx] {
			t.Fatalf("duplicate result for packet %d", idx)
		}
		seen[idx] = true
		want := e.Classify(trace[idx])
		got := o.Rule
		if got >= 0 {
			got = ex.Parent[got]
		}
		if got != want {
			t.Fatalf("packet %d: %d != %d", idx, got, want)
		}
	}
}

func BenchmarkPipelineK4N512(b *testing.B) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 512, Profile: ruleset.PrefixOnly, Seed: 1, DefaultRule: true})
	e, err := New(rs.Expand(), 4)
	if err != nil {
		b.Fatal(err)
	}
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 256, MatchFraction: 0.9, Seed: 2})
	keys := make([]packet.Key, len(trace))
	for i, h := range trace {
		keys[i] = h.Key()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := NewPipeline(e)
		p.Run(keys)
	}
}
