package stridebv

import (
	"testing"

	"pktclass/internal/ruleset"
)

func TestModularValidation(t *testing.T) {
	_, ex := genSet(t, 16, ruleset.PrefixOnly, 101)
	if _, err := NewModular(ex, 4, 0); err == nil {
		t.Fatal("accepted width 0")
	}
	if _, err := NewModular(ruleset.New(nil).Expand(), 4, 16); err == nil {
		t.Fatal("accepted empty ruleset")
	}
	if _, err := NewModular(ex, 0, 16); err == nil {
		t.Fatal("accepted stride 0")
	}
}

func TestModularPartitioning(t *testing.T) {
	_, ex := genSet(t, 100, ruleset.PrefixOnly, 102)
	m, err := NewModular(ex, 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	// ceil(100/32) = 4 modules.
	if len(m.modules) != 4 {
		t.Fatalf("%d modules", len(m.modules))
	}
	if m.width != 32 || m.NumRules() != 100 {
		t.Fatal("geometry wrong")
	}
	// Memory equals the monolithic engine's: the same 2^k·Ne bits per
	// stage overall.
	mono, err := New(ex, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.MemoryBits() != mono.MemoryBits() {
		t.Fatalf("modular memory %d != monolithic %d", m.MemoryBits(), mono.MemoryBits())
	}
	if m.Name() == "" {
		t.Fatal("empty name")
	}
}

func TestModularEqualsMonolithic(t *testing.T) {
	for _, profile := range []ruleset.Profile{ruleset.FirewallProfile, ruleset.FeatureFree} {
		rs, ex := genSet(t, 60, profile, 103)
		mono, err := New(ex, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, width := range []int{1, 7, 16, 60, 200} {
			m, err := NewModular(ex, 3, width)
			if err != nil {
				t.Fatal(err)
			}
			trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 250, MatchFraction: 0.8, Seed: 104})
			for _, h := range trace {
				if got, want := m.Classify(h), mono.Classify(h); got != want {
					t.Fatalf("%v width=%d: modular %d != mono %d", profile, width, got, want)
				}
				gm, wm := m.MultiMatch(h), mono.MultiMatch(h)
				if len(gm) != len(wm) {
					t.Fatalf("%v width=%d: MultiMatch %v != %v", profile, width, gm, wm)
				}
				for i := range wm {
					if gm[i] != wm[i] {
						t.Fatalf("%v width=%d: MultiMatch %v != %v", profile, width, gm, wm)
					}
				}
			}
		}
	}
}

func BenchmarkModularClassify2048x256(b *testing.B) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 2048, Profile: ruleset.PrefixOnly, Seed: 1, DefaultRule: true})
	m, err := NewModular(rs.Expand(), 4, 256)
	if err != nil {
		b.Fatal(err)
	}
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 1024, MatchFraction: 0.9, Seed: 2})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Classify(trace[i%len(trace)])
	}
}
