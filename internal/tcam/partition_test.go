package tcam

import (
	"math/rand"
	"testing"

	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
)

func TestPartitionedValidation(t *testing.T) {
	_, ex := genSet(t, 8, ruleset.PrefixOnly, 51)
	if _, err := NewPartitioned(ex, PartitionConfig{IndexOff: 0, IndexBits: 0, MaxCopies: 1}); err == nil {
		t.Fatal("accepted 0 index bits")
	}
	if _, err := NewPartitioned(ex, PartitionConfig{IndexOff: 0, IndexBits: 13, MaxCopies: 1}); err == nil {
		t.Fatal("accepted 13 index bits")
	}
	if _, err := NewPartitioned(ex, PartitionConfig{IndexOff: 100, IndexBits: 8, MaxCopies: 1}); err == nil {
		t.Fatal("accepted index past tuple end")
	}
	if _, err := NewPartitioned(ex, PartitionConfig{IndexOff: 0, IndexBits: 4, MaxCopies: 0}); err == nil {
		t.Fatal("accepted MaxCopies 0")
	}
}

// The pre-decoder reads its index bits from the key's two words; it must
// agree with the bit-by-bit Key.Stride at every legal geometry, including
// fields that straddle the word boundary at bit 64.
func TestPartitionedIndexEqualsKeyStride(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for bits := 1; bits <= 12; bits++ {
		for off := 0; off+bits <= packet.W; off++ {
			p := &Partitioned{indexOff: off, indexBits: bits}
			for i := 0; i < 8; i++ {
				k := randomKey(rng)
				if got, want := p.index(k.Words()), k.Stride(off, bits); got != want {
					t.Fatalf("index bits [%d,%d) of %v = %#x, Key.Stride = %#x", off, off+bits, k, got, want)
				}
			}
		}
	}
}

func TestPartitionedEqualsBehavioral(t *testing.T) {
	for _, profile := range []ruleset.Profile{ruleset.FirewallProfile, ruleset.FeatureFree, ruleset.PrefixOnly} {
		rs, ex := genSet(t, 48, profile, 52)
		ref := NewBehavioral(ex)
		part, err := NewPartitioned(ex, DefaultPartitionConfig())
		if err != nil {
			t.Fatal(err)
		}
		if part.NumRules() != rs.Len() {
			t.Fatalf("NumRules = %d", part.NumRules())
		}
		trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 400, MatchFraction: 0.8, Seed: 15})
		for _, h := range trace {
			if got, want := part.Classify(h), ref.Classify(h); got != want {
				t.Fatalf("%v: partitioned=%d flat=%d for %s", profile, got, want, h)
			}
			gm, wm := part.MultiMatch(h), ref.MultiMatch(h)
			if len(gm) != len(wm) {
				t.Fatalf("%v: MultiMatch %v != %v", profile, gm, wm)
			}
			for i := range wm {
				if gm[i] != wm[i] {
					t.Fatalf("%v: MultiMatch %v != %v", profile, gm, wm)
				}
			}
		}
	}
}

func TestPartitionedPowerSaving(t *testing.T) {
	// Firewall rulesets have mostly concrete DIP prefixes, so indexing the
	// DIP head must activate far fewer entries than a flat search.
	rs, ex := genSet(t, 512, ruleset.FirewallProfile, 53)
	part, err := NewPartitioned(ex, DefaultPartitionConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s := part.PowerSaving(); s < 2 {
		t.Fatalf("power saving only %.2fx on a structured ruleset (%s)", s, part)
	}
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 100, MatchFraction: 0.9, Seed: 16})
	for _, h := range trace {
		if a := part.ActiveEntries(h); a <= 0 || a > ex.Len() {
			t.Fatalf("ActiveEntries = %d of %d", a, ex.Len())
		}
	}
	if part.StoredEntries() < ex.Len() {
		t.Fatalf("stored %d < %d entries", part.StoredEntries(), ex.Len())
	}
	if part.String() == "" {
		t.Fatal("empty String")
	}
}

func TestPartitionedWildcardsGoToOverflow(t *testing.T) {
	// A ruleset of pure wildcards: every entry's indexed bits are don't
	// care, so with MaxCopies 1 everything lands in overflow and there is
	// no saving — partitioning is itself feature-reliant, which is exactly
	// the paper's point about TCAM optimizations.
	rules := make([]ruleset.Rule, 16)
	for i := range rules {
		rules[i] = ruleset.NewWildcardRule(ruleset.Action{Port: i})
	}
	ex := ruleset.New(rules).Expand()
	part, err := NewPartitioned(ex, PartitionConfig{IndexOff: packet.DIPOff, IndexBits: 4, MaxCopies: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(part.overflow) != 16 {
		t.Fatalf("%d entries in overflow, want 16", len(part.overflow))
	}
	if s := part.PowerSaving(); s > 1.01 {
		t.Fatalf("phantom power saving %.2fx on all-wildcard set", s)
	}
	if got := part.Classify(packet.Header{}); got != 0 {
		t.Fatalf("Classify = %d", got)
	}
}

func TestPartitionedReplication(t *testing.T) {
	// An entry with a 2-bit-wildcard index field replicates into 4 blocks
	// when MaxCopies allows.
	r := ruleset.Rule{
		SIP: ruleset.Prefix{Bits: 32},
		DIP: ruleset.Prefix{Value: 0xC0000000, Bits: 32, Len: 2}, // top 2 bits fixed
		SP:  ruleset.FullPortRange, DP: ruleset.FullPortRange,
		Proto: ruleset.AnyProtocol,
	}
	ex := ruleset.New([]ruleset.Rule{r}).Expand()
	part, err := NewPartitioned(ex, PartitionConfig{IndexOff: packet.DIPOff, IndexBits: 4, MaxCopies: 8})
	if err != nil {
		t.Fatal(err)
	}
	if part.StoredEntries() != 4 {
		t.Fatalf("stored %d copies, want 4", part.StoredEntries())
	}
	if len(part.overflow) != 0 {
		t.Fatal("entry leaked to overflow")
	}
}

func BenchmarkPartitionedClassify512(b *testing.B) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 512, Profile: ruleset.FirewallProfile, Seed: 1, DefaultRule: true})
	ex := rs.Expand()
	part, err := NewPartitioned(ex, DefaultPartitionConfig())
	if err != nil {
		b.Fatal(err)
	}
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 1024, MatchFraction: 0.9, Seed: 2})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		part.Classify(trace[i%len(trace)])
	}
}
