package ruleset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// coverEquals checks that the prefix list covers exactly [lo,hi], with no
// overlaps and in ascending order.
func coverEquals(t *testing.T, ps []Prefix, lo, hi uint16) {
	t.Helper()
	next := uint64(lo)
	for _, p := range ps {
		plo, phi := p.Range()
		if uint64(plo) != next {
			t.Fatalf("prefix %v starts at %d, want %d", p, plo, next)
		}
		next = uint64(phi) + 1
	}
	if next != uint64(hi)+1 {
		t.Fatalf("cover ends at %d, want %d", next-1, hi)
	}
}

func TestPrefixesKnownCases(t *testing.T) {
	cases := []struct {
		lo, hi uint16
		count  int
	}{
		{0, 65535, 1},    // wildcard -> single /0
		{80, 80, 1},      // exact -> /16
		{0, 1023, 1},     // aligned power of two -> /6
		{1024, 65535, 6}, // classic ephemeral range
		{1, 65534, 30},   // the 2(w-1) worst case for w=16
		{1, 1, 1},
		{0, 1, 1},
		{1, 2, 2},
		{3, 12, 4}, // {3}, {4-7}, {8-11}, {12}
	}
	for _, c := range cases {
		ps := PortRange{Lo: c.lo, Hi: c.hi}.Prefixes()
		if len(ps) != c.count {
			t.Errorf("[%d,%d]: %d prefixes, want %d (%v)", c.lo, c.hi, len(ps), c.count, ps)
		}
		coverEquals(t, ps, c.lo, c.hi)
	}
}

// A w-bit range expands to at most 2(w-1) prefixes, 30 for a port range.
func TestWorstCaseBound(t *testing.T) {
	// [1, 2^w - 2] is the canonical worst case.
	ps := PortRange{Lo: 1, Hi: 65534}.Prefixes()
	if len(ps) != 30 {
		t.Fatalf("worst case expansion = %d, want 30", len(ps))
	}
}

func TestQuickPrefixCoverExact(t *testing.T) {
	f := func(a, b uint16) bool {
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		r := PortRange{Lo: lo, Hi: hi}
		ps := r.Prefixes()
		if len(ps) > 30 {
			return false
		}
		// Exact cover: contiguous, ordered, within bounds.
		next := uint64(lo)
		for _, p := range ps {
			plo, phi := p.Range()
			if uint64(plo) != next || uint64(phi) > uint64(hi) {
				return false
			}
			next = uint64(phi) + 1
		}
		return next == uint64(hi)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMembershipPreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 500; trial++ {
		a, b := uint16(rng.Intn(65536)), uint16(rng.Intn(65536))
		if a > b {
			a, b = b, a
		}
		r := PortRange{Lo: a, Hi: b}
		ps := r.Prefixes()
		for probe := 0; probe < 20; probe++ {
			v := uint16(rng.Intn(65536))
			inRange := r.Matches(v)
			inCover := false
			for _, p := range ps {
				if p.Matches(uint32(v)) {
					inCover = true
					break
				}
			}
			if inRange != inCover {
				t.Fatalf("[%d,%d] probe %d: range=%v cover=%v (%v)", a, b, v, inRange, inCover, ps)
			}
		}
	}
}

func TestRangeToPrefixesEmptyOnInverted(t *testing.T) {
	if got := rangeToPrefixes(10, 5, 16); got != nil {
		t.Fatalf("inverted range gave %v", got)
	}
}

func BenchmarkRangePrefixesWorstCase(b *testing.B) {
	r := PortRange{Lo: 1, Hi: 65534}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(r.Prefixes()) != 30 {
			b.Fatal("wrong expansion")
		}
	}
}
