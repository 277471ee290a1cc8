package oftuple

import (
	"math/rand"
	"testing"
)

func TestWidthConstants(t *testing.T) {
	if W != 256 {
		t.Fatalf("W = %d, want 256", W)
	}
	if KeyBytes != 32 {
		t.Fatalf("KeyBytes = %d", KeyBytes)
	}
	if len((Header{}).Key()) != KeyBytes {
		t.Fatal("Key length wrong")
	}
}

func TestKeyFieldPlacement(t *testing.T) {
	h := Header{InPort: 0x8001, EthType: 0x0800, IPDst: 0xC0A80101, TpDst: 443}
	k := h.Key()
	if k[0] != 0x80 || k[1] != 0x01 {
		t.Fatalf("InPort bytes %x %x", k[0], k[1])
	}
	// EthType at offset 16+48+48 bits = 14 bytes.
	if k[14] != 0x08 || k[15] != 0x00 {
		t.Fatalf("EthType bytes %x %x", k[14], k[15])
	}
	// IPDst at (16+48+48+16+16+32)/8 = 22.
	if k[22] != 0xC0 || k[23] != 0xA8 || k[24] != 0x01 || k[25] != 0x01 {
		t.Fatalf("IPDst bytes % x", k[22:26])
	}
	// TpDst is the last 2 bytes.
	if k[30] != 0x01 || k[31] != 0xBB {
		t.Fatalf("TpDst bytes % x", k[30:])
	}
}

func TestRuleMatchesAndTernaryAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rules := GenerateRules(60, 4)
	for i, r := range rules {
		tern, err := r.Ternary()
		if err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 40; probe++ {
			var h Header
			if probe%2 == 0 {
				h = RandomHeader(rng)
			} else {
				h = HeaderInRule(r, rng)
			}
			if key := h.Key(); tern.Matches(key[:]) != r.Matches(h) {
				t.Fatalf("rule %d: ternary and direct match disagree", i)
			}
		}
	}
}

func TestHeaderInRuleAlwaysMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, r := range GenerateRules(100, 6) {
		for probe := 0; probe < 5; probe++ {
			if h := HeaderInRule(r, rng); !r.Matches(h) {
				t.Fatalf("HeaderInRule does not match its rule: %+v", r)
			}
		}
	}
}

func TestTableClassifyEqualsLinear(t *testing.T) {
	rules := GenerateRules(128, 7)
	tab, err := NewTable(rules, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	linear := func(h Header) int {
		for i, r := range rules {
			if r.Matches(h) {
				return i
			}
		}
		return -1
	}
	for probe := 0; probe < 800; probe++ {
		var h Header
		if probe%2 == 0 {
			h = RandomHeader(rng)
		} else {
			h = HeaderInRule(rules[rng.Intn(len(rules))], rng)
		}
		want := linear(h)
		if got := tab.Classify(h); got != want {
			t.Fatalf("StrideBV %d != linear %d", got, want)
		}
		if got := tab.ClassifyTCAM(h); got != want {
			t.Fatalf("TCAM %d != linear %d", got, want)
		}
	}
}

func TestTableMissRuleCatchesAll(t *testing.T) {
	rules := GenerateRules(32, 9)
	tab, err := NewTable(rules, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 100; i++ {
		if tab.Classify(RandomHeader(rng)) == -1 {
			t.Fatal("table-miss wildcard did not catch a packet")
		}
	}
}

func TestTableGeometry(t *testing.T) {
	tab, err := NewTable(GenerateRules(256, 11), 4)
	if err != nil {
		t.Fatal(err)
	}
	// ceil(256/4) = 64 stages.
	if tab.Stages() != 64 {
		t.Fatalf("stages = %d", tab.Stages())
	}
	sbv, tc := tab.MemoryBits()
	if sbv != 64*16*256 {
		t.Fatalf("stridebv memory = %d", sbv)
	}
	if tc != 2*256*256 {
		t.Fatalf("tcam memory = %d", tc)
	}
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable(nil, 4); err == nil {
		t.Fatal("accepted empty table")
	}
	bad := []Rule{{IPDst: FieldMatch{PrefixLen: 40}}}
	if _, err := NewTable(bad, 4); err == nil {
		t.Fatal("accepted oversized prefix length")
	}
}

func BenchmarkOpenFlowClassify(b *testing.B) {
	tab, err := NewTable(GenerateRules(512, 1), 4)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	hs := make([]Header, 256)
	for i := range hs {
		hs[i] = RandomHeader(rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Classify(hs[i%len(hs)])
	}
}
