package tcam

import (
	"math"
	"math/rand"
	"testing"

	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
)

func genSet(t testing.TB, n int, profile ruleset.Profile, seed int64) (*ruleset.RuleSet, *ruleset.Expanded) {
	t.Helper()
	rs := ruleset.Generate(ruleset.GenConfig{N: n, Profile: profile, Seed: seed, DefaultRule: true})
	return rs, rs.Expand()
}

func TestBehavioralEqualsLinearReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, profile := range []ruleset.Profile{ruleset.FirewallProfile, ruleset.FeatureFree, ruleset.PrefixOnly} {
		rs, ex := genSet(t, 48, profile, 3)
		eng := NewBehavioral(ex)
		if eng.NumRules() != rs.Len() {
			t.Fatalf("NumRules = %d", eng.NumRules())
		}
		trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 400, MatchFraction: 0.7, Seed: 5})
		for _, h := range trace {
			if got, want := eng.Classify(h), rs.FirstMatch(h); got != want {
				t.Fatalf("%v: Classify = %d, linear = %d for %s", profile, got, want, h)
			}
			gotMM := eng.MultiMatch(h)
			wantMM := rs.AllMatches(h)
			if len(gotMM) != len(wantMM) {
				t.Fatalf("%v: MultiMatch %v != %v", profile, gotMM, wantMM)
			}
			for i := range wantMM {
				if gotMM[i] != wantMM[i] {
					t.Fatalf("%v: MultiMatch %v != %v", profile, gotMM, wantMM)
				}
			}
		}
		_ = rng
	}
}

func TestBehavioralNoMatch(t *testing.T) {
	r := ruleset.Rule{
		SIP: ruleset.Prefix{Value: 0x01020304, Bits: 32, Len: 32},
		DIP: ruleset.Prefix{Bits: 32}, SP: ruleset.FullPortRange,
		DP: ruleset.FullPortRange, Proto: ruleset.AnyProtocol,
	}
	eng := NewBehavioral(ruleset.New([]ruleset.Rule{r}).Expand())
	if got := eng.Classify(packet.Header{SIP: 0x05060708}); got != -1 {
		t.Fatalf("Classify = %d, want -1", got)
	}
	if mm := eng.MultiMatch(packet.Header{SIP: 0x05060708}); len(mm) != 0 {
		t.Fatalf("MultiMatch = %v", mm)
	}
}

// TestMatchVector: the extended TCAM raises one match line per rule, and
// line i is asserted exactly when rule i matches the header.
func TestMatchVector(t *testing.T) {
	rs := ruleset.SampleRuleSet()
	eng := NewBehavioral(rs.Expand())
	h := packet.Header{SIP: 0x14000001, DIP: 0x230B0001, SP: 5, DP: 80, Proto: 6}
	mv := eng.MatchVector(h.Key())
	if len(mv) != rs.Len() {
		t.Fatalf("MatchVector length %d, want one line per rule (%d)", len(mv), rs.Len())
	}
	anySet := false
	for i, m := range mv {
		if m != rs.Rules[i].Matches(h) {
			t.Fatalf("line %d = %v, rule %d matches = %v", i, m, i, rs.Rules[i].Matches(h))
		}
		anySet = anySet || m
	}
	if !anySet {
		t.Fatal("no match flags set for a matching header")
	}
}

func TestFPGAEqualsBehavioral(t *testing.T) {
	for _, profile := range []ruleset.Profile{ruleset.FirewallProfile, ruleset.PrefixOnly} {
		rs, ex := genSet(t, 24, profile, 9)
		ref := NewBehavioral(ex)
		fpga := NewFPGA(ex)
		if fpga.NumEntries() != ex.Len() || fpga.NumRules() != rs.Len() {
			t.Fatalf("sizes wrong: %d entries, %d rules", fpga.NumEntries(), fpga.NumRules())
		}
		trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 150, MatchFraction: 0.8, Seed: 13})
		for _, h := range trace {
			if got, want := fpga.Classify(h), ref.Classify(h); got != want {
				t.Fatalf("%v: FPGA Classify = %d, behavioral = %d for %s", profile, got, want, h)
			}
		}
		h := trace[0]
		gotMM, wantMM := fpga.MultiMatch(h), ref.MultiMatch(h)
		if len(gotMM) != len(wantMM) {
			t.Fatalf("MultiMatch %v != %v", gotMM, wantMM)
		}
		for i := range wantMM {
			if gotMM[i] != wantMM[i] {
				t.Fatalf("MultiMatch %v != %v", gotMM, wantMM)
			}
		}
	}
}

func TestFPGAWriteCosts16Cycles(t *testing.T) {
	_, ex := genSet(t, 8, ruleset.PrefixOnly, 2)
	fpga := NewFPGA(ex)
	start := fpga.Cycle()
	cycles, err := fpga.Write(0, ex.Entries[1])
	if err != nil {
		t.Fatal(err)
	}
	if cycles != WriteCycles {
		t.Fatalf("write took %d cycles", cycles)
	}
	// A second write issued immediately must be rejected: port busy.
	if _, err := fpga.Write(1, ex.Entries[0]); err == nil {
		t.Fatal("overlapping write accepted")
	}
	if fpga.Cycle() != start {
		t.Fatal("cycle counter advanced without clocking")
	}
}

func TestFPGASearchDuringWriteExcludesEntry(t *testing.T) {
	// While an entry's SRL16Es are shifting (16 cycles), its match output
	// is unreliable and the control block masks it: a search issued during
	// the write must behave as if the entry were absent, then see it again
	// once the write completes.
	rs, ex := genSet(t, 8, ruleset.PrefixOnly, 77)
	fpga := NewFPGA(ex)
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 200, MatchFraction: 1, Seed: 78})
	var victim packet.Header
	entry := -1
	for _, h := range trace {
		if r := fpga.Classify(h); r >= 0 {
			for i, p := range ex.Parent {
				if p == r {
					victim, entry = h, i
					break
				}
			}
			break
		}
	}
	if entry < 0 {
		t.Skip("no matching header")
	}
	before := fpga.Classify(victim)
	// Rewrite the winning entry with its own pattern: contents unchanged,
	// but during the 16-cycle shift the entry must not match.
	if _, err := fpga.Write(entry, ex.Entries[entry]); err != nil {
		t.Fatal(err)
	}
	during := fpga.Classify(victim) // cycle advances by 1, still < busyUntil
	if during == before {
		t.Fatalf("entry matched mid-write: %d", during)
	}
	fpga.Advance(WriteCycles)
	after := fpga.Classify(victim)
	if after != before {
		t.Fatalf("entry did not recover after write: %d != %d", after, before)
	}
}

func TestFPGAInitialProgrammingCost(t *testing.T) {
	_, ex := genSet(t, 16, ruleset.PrefixOnly, 4)
	fpga := NewFPGA(ex)
	if want := int64(ex.Len() * WriteCycles); fpga.Cycle() != want {
		t.Fatalf("programming cost %d cycles, want %d", fpga.Cycle(), want)
	}
}

func TestFPGAReadBack(t *testing.T) {
	_, ex := genSet(t, 8, ruleset.FirewallProfile, 6)
	fpga := NewFPGA(ex)
	for i, e := range ex.Entries {
		got, err := fpga.Read(i)
		if err != nil {
			t.Fatal(err)
		}
		if got != e {
			t.Fatalf("Read(%d) = %s, want %s", i, got, e)
		}
	}
	if _, err := fpga.Read(-1); err == nil {
		t.Fatal("Read(-1) accepted")
	}
	if _, err := fpga.Read(ex.Len()); err == nil {
		t.Fatal("Read past end accepted")
	}
}

func TestFPGAInvalidate(t *testing.T) {
	rs, ex := genSet(t, 4, ruleset.PrefixOnly, 8)
	fpga := NewFPGA(ex)
	h := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 50, MatchFraction: 1, Seed: 1})
	var hit packet.Header
	found := false
	for _, x := range h {
		if fpga.Classify(x) == 0 {
			hit, found = x, true
			break
		}
	}
	if !found {
		t.Skip("no header hit rule 0")
	}
	// Invalidate every entry of rule 0; the winner must change.
	for i, p := range ex.Parent {
		if p == 0 {
			if err := fpga.Invalidate(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := fpga.Classify(hit); got == 0 {
		t.Fatal("invalidated entry still matches")
	}
	if err := fpga.Invalidate(1000); err == nil {
		t.Fatal("Invalidate out of range accepted")
	}
	if _, err := fpga.Read(indexOfParent(ex, 0)); err == nil {
		t.Fatal("Read of invalidated entry accepted")
	}
}

func indexOfParent(ex *ruleset.Expanded, rule int) int {
	for i, p := range ex.Parent {
		if p == rule {
			return i
		}
	}
	return -1
}

// TestFPGAInvalidEntryNeverMatches: an invalid ternary word, written into a
// row or present in the expansion the TCAM is programmed from, leaves the
// row matching nothing — the semantics TestInvalidTernarySemantics pins for
// StrideBV — so the model answers like the behavioural TCAM given the same
// delta. Half the headers fall inside rule 0, whose row it is.
func TestFPGAInvalidEntryNeverMatches(t *testing.T) {
	rs, ex := genSet(t, 16, ruleset.PrefixOnly, 41)
	inv := ruleset.InvalidTernary()
	written := NewFPGA(ex)
	cycles, err := written.Write(0, inv)
	if err != nil {
		t.Fatal(err)
	}
	written.Advance(int64(cycles))
	built := NewFPGA(&ruleset.Expanded{
		Entries:  append([]ruleset.Ternary{inv}, ex.Entries[1:]...),
		Parent:   ex.Parent,
		NumRules: ex.NumRules,
	})
	ref, err := NewBehavioral(ex).ApplyDeltas([]int{0}, []ruleset.Ternary{inv})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		h := ruleset.RandomHeader(rng)
		if i%2 == 0 {
			h = ruleset.HeaderInRule(rs.Rules[0], rng)
		}
		want := ref.Classify(h)
		for name, f := range map[string]*FPGA{"written": written, "programmed": built} {
			if got := f.Classify(h); got != want || got == 0 {
				t.Fatalf("%s invalid row: Classify = %d, behavioural = %d for %s", name, got, want, h)
			}
			for _, r := range f.MultiMatch(h) {
				if r == 0 {
					t.Fatalf("%s invalid row: MultiMatch reports rule 0 for %s", name, h)
				}
			}
		}
	}
}

func TestFPGAWriteOutOfRange(t *testing.T) {
	_, ex := genSet(t, 4, ruleset.PrefixOnly, 8)
	fpga := NewFPGA(ex)
	if _, err := fpga.Write(99, ex.Entries[0]); err == nil {
		t.Fatal("Write out of range accepted")
	}
}

func TestASICPowerModel(t *testing.T) {
	// Zero entries: static power only.
	if got := ASICPowerModel(0); got != 0.8 {
		t.Fatalf("P(0) = %v", got)
	}
	// Full 18 Mbit chip (131072 entries of 144 bits): max power.
	full := 18 * (1 << 20) / 144
	if got := ASICPowerModel(full); math.Abs(got-15.0) > 1e-9 {
		t.Fatalf("P(full) = %v", got)
	}
	// Monotone increasing.
	if !(ASICPowerModel(512) < ASICPowerModel(1024)) {
		t.Fatal("power not monotone in N")
	}
	// Paper-scale sanity: 2048 rules is a tiny fraction of the chip.
	if p := ASICPowerModel(2048); p < 0.8 || p > 1.1 {
		t.Fatalf("P(2048) = %v out of expected band", p)
	}
}

func TestMemoryBits(t *testing.T) {
	if got := MemoryBits(2048, packet.W); got != 2*104*2048 {
		t.Fatalf("MemoryBits = %d", got)
	}
	// The paper's Fig 7 point: 2048 rules -> 416 Kbit.
	if kbit := float64(MemoryBits(2048, packet.W)) / 1024; kbit != 416 {
		t.Fatalf("TCAM memory at N=2048 = %v Kbit, want 416", kbit)
	}
	// The SRL16E model stores every expanded entry.
	_, ex := genSet(t, 32, ruleset.FirewallProfile, 9)
	if got, want := NewFPGA(ex).MemoryBits(), 2*packet.W*ex.Len(); got != want {
		t.Fatalf("FPGA MemoryBits = %d, want %d", got, want)
	}
}

func TestBehavioralString(t *testing.T) {
	_, ex := genSet(t, 4, ruleset.PrefixOnly, 8)
	s := NewBehavioral(ex).String()
	if s == "" {
		t.Fatal("empty String()")
	}
}

func BenchmarkBehavioralClassify512(b *testing.B) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 512, Profile: ruleset.PrefixOnly, Seed: 1, DefaultRule: true})
	eng := NewBehavioral(rs.Expand())
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 1024, MatchFraction: 0.9, Seed: 2})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Classify(trace[i%len(trace)])
	}
}

func BenchmarkFPGASearch128(b *testing.B) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 128, Profile: ruleset.PrefixOnly, Seed: 1, DefaultRule: true})
	eng := NewFPGA(rs.Expand())
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 1024, MatchFraction: 0.9, Seed: 2})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Classify(trace[i%len(trace)])
	}
}
