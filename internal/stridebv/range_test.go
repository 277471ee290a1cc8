package stridebv

import (
	"math/rand"
	"testing"

	"pktclass/internal/ruleset"
)

func TestRangeEngineMultiMatch(t *testing.T) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 30, Profile: ruleset.FirewallProfile, Seed: 33, DefaultRule: true})
	e, err := NewRange(rs, 4)
	if err != nil {
		t.Fatal(err)
	}
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 150, MatchFraction: 0.9, Seed: 12})
	for _, h := range trace {
		got, want := e.MultiMatch(h), rs.AllMatches(h)
		if len(got) != len(want) {
			t.Fatalf("MultiMatch %v != %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("MultiMatch %v != %v", got, want)
			}
		}
	}
}

func TestRangeEngineNoExpansion(t *testing.T) {
	// Worst-case range rules: the ternary path explodes, the range engine
	// stays at N.
	rules := make([]ruleset.Rule, 8)
	for i := range rules {
		rules[i] = ruleset.Rule{
			SIP: ruleset.Prefix{Bits: 32}, DIP: ruleset.Prefix{Bits: 32},
			SP:    ruleset.PortRange{Lo: 1, Hi: 65534},
			DP:    ruleset.PortRange{Lo: 1, Hi: 65534},
			Proto: ruleset.AnyProtocol,
		}
	}
	rs := ruleset.New(rules)
	e, err := NewRange(rs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if e.NumRules() != 8 {
		t.Fatalf("range engine width %d, want 8", e.NumRules())
	}
	ex := rs.Expand()
	if ex.Len() != 8*900 {
		t.Fatalf("ternary expansion = %d, want 7200", ex.Len())
	}
	// And it still classifies correctly at the boundaries.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		h := ruleset.RandomHeader(rng)
		if got, want := e.Classify(h), rs.FirstMatch(h); got != want {
			t.Fatalf("Classify=%d linear=%d for %s", got, want, h)
		}
	}
}

func TestRangeEngineGeometry(t *testing.T) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 64, Profile: ruleset.FirewallProfile, Seed: 35})
	e, err := NewRange(rs, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 72 prefix bits / 4 = 18 stride stages + 2 range stages.
	if e.Stages() != 20 {
		t.Fatalf("Stages = %d, want 20", e.Stages())
	}
	wantMem := 18*16*64 + 4*16*64
	if e.MemoryBits() != wantMem {
		t.Fatalf("MemoryBits = %d, want %d", e.MemoryBits(), wantMem)
	}
	if e.Name() != "stridebv-range-k4" {
		t.Fatalf("Name = %q", e.Name())
	}
	if e.String() == "" {
		t.Fatal("empty String")
	}
}

func TestRangeEngineValidation(t *testing.T) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 4, Profile: ruleset.FirewallProfile, Seed: 36})
	if _, err := NewRange(rs, 0); err == nil {
		t.Fatal("accepted stride 0")
	}
	if _, err := NewRange(ruleset.New(nil), 4); err == nil {
		t.Fatal("accepted empty ruleset")
	}
}

func BenchmarkRangeClassifyN512(b *testing.B) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 512, Profile: ruleset.FirewallProfile, Seed: 1, DefaultRule: true})
	e, err := NewRange(rs, 4)
	if err != nil {
		b.Fatal(err)
	}
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 1024, MatchFraction: 0.9, Seed: 2})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Classify(trace[i%len(trace)])
	}
}

func BenchmarkRangeBVBuild(b *testing.B) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 2048, Profile: ruleset.FirewallProfile, Seed: 1, DefaultRule: true})
	b.Run("k4/N2048", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NewRange(rs, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
}
