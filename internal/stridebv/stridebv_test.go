package stridebv

import (
	"fmt"
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

// compatible is the bit-probe oracle the word-wise build is checked against:
// whether stride value c at stage s of a k-bit decomposition can match
// entry. Bits past W (final-stage padding) only match the zero padding the
// header side generates; an invalidated entry is compatible with nothing.
func compatible(entry ruleset.Ternary, k, s, c int) bool {
	return compatibleBits(entry.Value[:], entry.Mask[:], !entry.Invalid, packet.W, k, s, c)
}

// compatibleBits is compatible for a w-bit pattern of any width, MSB first
// like packet.Key (bit i is bit 7-i%8 of byte i/8).
func compatibleBits(value, mask []byte, valid bool, w, k, s, c int) bool {
	if !valid {
		return false
	}
	for b := 0; b < k; b++ {
		i := s*k + b
		cbit := c >> uint(k-1-b) & 1
		if i >= w {
			if cbit != 0 {
				return false
			}
			continue
		}
		shift := 7 - uint(i&7)
		if mask[i>>3]>>shift&1 == 1 && int(value[i>>3]>>shift&1) != cbit {
			return false
		}
	}
	return true
}

// The build derives each (entry, stage) care/value stride once and sets a
// row's bit by one compare; every stored bit must equal the bit-by-bit
// oracle, for every stride (k=3,5,6,7 pad the final stage; none of them
// divides 64).
func TestBuildMatchesBitProbeOracle(t *testing.T) {
	_, ex := genSet(t, 70, ruleset.FirewallProfile, 5)
	//pclass:allow-mutate the fixture's expansion is private to this test
	ex.Entries[3] = ruleset.InvalidTernary()
	for k := MinStride; k <= MaxStride; k++ {
		e, err := New(ex, k)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < e.Stages(); s++ {
			for c := 0; c < 1<<uint(k); c++ {
				v := e.StageVector(s, c)
				for j, entry := range ex.Entries {
					if got, want := v.Get(j), compatible(entry, k, s, c); got != want {
						t.Fatalf("k=%d stage %d value %d entry %d: stored %v, oracle %v", k, s, c, j, got, want)
					}
				}
			}
		}
	}
}

func TestNewValidation(t *testing.T) {
	_, ex := genSet(t, 8, ruleset.PrefixOnly, 1)
	if _, err := New(ex, 0); err == nil {
		t.Fatal("accepted stride 0")
	}
	if _, err := New(ex, 9); err == nil {
		t.Fatal("accepted stride 9")
	}
	if _, err := New(ruleset.New(nil).Expand(), 3); err == nil {
		t.Fatal("accepted empty ruleset")
	}
}

func TestGeometry(t *testing.T) {
	_, ex := genSet(t, 32, ruleset.PrefixOnly, 1)
	for _, k := range []int{1, 2, 3, 4, 5, 8} {
		e, err := New(ex, k)
		if err != nil {
			t.Fatal(err)
		}
		wantStages := (packet.W + k - 1) / k
		if e.Stages() != wantStages {
			t.Fatalf("k=%d: stages %d, want %d", k, e.Stages(), wantStages)
		}
		if e.MemoryBits() != wantStages*(1<<k)*ex.Len() {
			t.Fatalf("k=%d: memory %d", k, e.MemoryBits())
		}
		if e.Stride() != k || e.NumEntries() != ex.Len() {
			t.Fatalf("k=%d: accessors wrong", k)
		}
	}
}

func TestPaperMemoryPoints(t *testing.T) {
	// Fig 7 anchor points at N=2048 (prefix-only so Ne == N):
	// k=4 -> 26*16*2048 = 832 Kbit, k=3 -> 35*8*2048 = 560 Kbit.
	_, ex := genSet(t, 2048, ruleset.PrefixOnly, 2)
	e4, err := New(ex, 4)
	if err != nil {
		t.Fatal(err)
	}
	if kb := e4.MemoryBits() / 1024; kb != 832 {
		t.Fatalf("k=4 N=2048 memory = %d Kbit, want 832", kb)
	}
	e3, err := New(ex, 3)
	if err != nil {
		t.Fatal(err)
	}
	if kb := e3.MemoryBits() / 1024; kb != 560 {
		t.Fatalf("k=3 N=2048 memory = %d Kbit, want 560", kb)
	}
}

func TestClassifyEqualsLinear(t *testing.T) {
	for _, profile := range []ruleset.Profile{ruleset.FirewallProfile, ruleset.FeatureFree, ruleset.PrefixOnly} {
		rs, ex := genSet(t, 48, profile, 7)
		trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 300, MatchFraction: 0.7, Seed: 3})
		for _, k := range []int{1, 3, 4} {
			e, err := New(ex, k)
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range trace {
				if got, want := e.Classify(h), rs.FirstMatch(h); got != want {
					t.Fatalf("%v k=%d: Classify=%d linear=%d for %s", profile, k, got, want, h)
				}
			}
		}
	}
}

func TestMultiMatchEqualsLinear(t *testing.T) {
	rs, ex := genSet(t, 40, ruleset.FirewallProfile, 8)
	e, err := New(ex, 4)
	if err != nil {
		t.Fatal(err)
	}
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 200, MatchFraction: 0.9, Seed: 4})
	for _, h := range trace {
		got, want := e.MultiMatch(h), rs.AllMatches(h)
		if len(got) != len(want) {
			t.Fatalf("MultiMatch %v != %v for %s", got, want, h)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("MultiMatch %v != %v", got, want)
			}
		}
	}
}

func TestFSBVEqualsStrideBV(t *testing.T) {
	rs, ex := genSet(t, 32, ruleset.FeatureFree, 9)
	fsbv, err := NewFSBV(ex)
	if err != nil {
		t.Fatal(err)
	}
	if fsbv.Stride() != 1 || fsbv.Stages() != packet.W {
		t.Fatalf("FSBV geometry wrong: k=%d stages=%d", fsbv.Stride(), fsbv.Stages())
	}
	s4, err := New(ex, 4)
	if err != nil {
		t.Fatal(err)
	}
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 200, MatchFraction: 0.8, Seed: 5})
	for _, h := range trace {
		if a, b := fsbv.Classify(h), s4.Classify(h); a != b {
			t.Fatalf("FSBV=%d StrideBV=%d for %s", a, b, h)
		}
	}
}

func TestStrideBVEqualsAcrossStrides(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	rs, ex := genSet(t, 24, ruleset.FeatureFree, 11)
	engines := make([]*Engine, 0)
	for _, k := range []int{2, 3, 4, 5, 8} {
		e, err := New(ex, k)
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, e)
	}
	for i := 0; i < 300; i++ {
		h := ruleset.RandomHeader(rng)
		want := rs.FirstMatch(h)
		for _, e := range engines {
			if got := e.Classify(h); got != want {
				t.Fatalf("%s: got %d want %d for %s", e.Name(), got, want, h)
			}
		}
	}
}

func TestUpdateEntryEqualsRebuild(t *testing.T) {
	_, ex := genSet(t, 32, ruleset.PrefixOnly, 13)
	e, err := New(ex, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Replace entry 5 with entry 20's pattern; a fresh engine over the
	// test's own expansion with the same update applied must agree
	// everywhere.
	updated := applyDeltas(t, e, []int{5}, []ruleset.Ternary{ex.Entries[20]})
	fresh, err := New(applied(ex, []int{5}, []ruleset.Ternary{ex.Entries[20]}), 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 500; i++ {
		h := ruleset.RandomHeader(rng)
		a := updated.MatchVector(h.Key())
		b := fresh.MatchVector(h.Key())
		if !a.Equal(b) {
			t.Fatalf("update != rebuild for %s", h)
		}
	}
	if _, err := e.ApplyDeltas([]int{-1}, ex.Entries[:1]); err == nil {
		t.Fatal("ApplyDeltas(-1) accepted")
	}
	if _, err := e.ApplyDeltas([]int{ex.Len()}, ex.Entries[:1]); err == nil {
		t.Fatal("ApplyDeltas past end accepted")
	}
}

func TestInvalidateEntry(t *testing.T) {
	rs, ex := genSet(t, 16, ruleset.PrefixOnly, 15)
	e, err := New(ex, 4)
	if err != nil {
		t.Fatal(err)
	}
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 100, MatchFraction: 1, Seed: 6})
	var victim packet.Header
	found := false
	for _, h := range trace {
		if e.Classify(h) == 0 {
			victim, found = h, true
			break
		}
	}
	if !found {
		t.Skip("no header hits rule 0")
	}
	var rules []int
	var entries []ruleset.Ternary
	for j, p := range ex.Parent {
		if p == 0 {
			rules, entries = append(rules, j), append(entries, ruleset.InvalidTernary())
		}
	}
	if got := applyDeltas(t, e, rules, entries).Classify(victim); got == 0 {
		t.Fatal("invalidated rule still matches")
	}
	if _, err := e.ApplyDeltas([]int{-1}, entries[:1]); err == nil {
		t.Fatal("invalidation of entry -1 accepted")
	}
}

func TestStageVectorUniformMemory(t *testing.T) {
	// Every stage stores exactly 2^k vectors of Ne bits: the uniform
	// distribution property the paper credits for the high clock rate.
	_, ex := genSet(t, 64, ruleset.FirewallProfile, 16)
	e, err := New(ex, 3)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < e.Stages(); s++ {
		for c := 0; c < 8; c++ {
			if got := e.StageVector(s, c).Len(); got != ex.Len() {
				t.Fatalf("stage %d value %d: width %d", s, c, got)
			}
		}
	}
}

func TestStageVectorDisjointCover(t *testing.T) {
	// For any stage, each entry appears in at least one stride-value vector
	// (a rule always matches *some* value), and an entry with no wildcards
	// in that stride appears in exactly one.
	_, ex := genSet(t, 64, ruleset.FeatureFree, 17)
	e, err := New(ex, 4)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < e.Stages(); s++ {
		for j := 0; j < ex.Len(); j++ {
			count := 0
			for c := 0; c < 16; c++ {
				if e.StageVector(s, c).Get(j) {
					count++
				}
			}
			if count == 0 {
				t.Fatalf("entry %d unreachable at stage %d", j, s)
			}
		}
	}
}

func TestName(t *testing.T) {
	_, ex := genSet(t, 8, ruleset.PrefixOnly, 1)
	e, _ := New(ex, 3)
	if e.Name() != "stridebv-k3" {
		t.Fatalf("Name = %q", e.Name())
	}
	if e.String() == "" {
		t.Fatal("empty String")
	}
}

func BenchmarkClassifyK4N512(b *testing.B) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 512, Profile: ruleset.PrefixOnly, Seed: 1, DefaultRule: true})
	e, err := New(rs.Expand(), 4)
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

func BenchmarkClassifyK3N2048(b *testing.B) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 2048, Profile: ruleset.PrefixOnly, Seed: 1, DefaultRule: true})
	e, err := New(rs.Expand(), 3)
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

// BenchmarkStrideBVBuild is the cold-start cost of the flat engine: one
// New over an expanded ruleset (firewall: Ne ≈ 1.8 N; prefix-only: Ne = N),
// at N = 2048 and at part_large's N = 32768.
func BenchmarkStrideBVBuild(b *testing.B) {
	for _, c := range []struct {
		name    string
		profile ruleset.Profile
		n       int
		strides []int
	}{
		{"fw", ruleset.FirewallProfile, 2048, []int{3, 4}},
		{"prefix", ruleset.PrefixOnly, 2048, []int{3, 4}},
		{"prefix", ruleset.PrefixOnly, 32768, []int{4}},
	} {
		_, ex := genSet(b, c.n, c.profile, 1)
		for _, k := range c.strides {
			b.Run(fmt.Sprintf("%s/k%d/N%d", c.name, k, c.n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := New(ex, k); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestBuildAllocsBounded: a build allocates its blocks, summaries and
// scratch once, not once per 64-entry group — the same count at N = 2048
// (32 groups) and N = 16384 (256 groups), at most 48 at k = 4.
func TestBuildAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops workspaces at random under the race detector")
	}
	for _, n := range []int{2048, 16384} {
		_, ex := genSet(t, n, ruleset.PrefixOnly, 1)
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := New(ex, 4); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("N=%d: %.0f allocations", n, allocs)
		if allocs > 48 {
			t.Fatalf("N=%d: New allocates %.0f times, bound 48", n, allocs)
		}
	}
}
