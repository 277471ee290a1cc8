package ruleset

import (
	"math/rand"
	"testing"

	"pktclass/internal/packet"
)

func TestSampleRuleSetSemantics(t *testing.T) {
	rs := SampleRuleSet()
	if err := rs.Validate(); err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 6 {
		t.Fatalf("sample has %d rules", rs.Len())
	}
	cases := []struct {
		h    packet.Header
		want int
	}{
		// Rule 0: exact SIP, /24 DIP, SP 23, UDP.
		{packet.Header{SIP: ip(175, 77, 88, 155), DIP: ip(192, 168, 0, 9), SP: 23, DP: 999, Proto: ProtoUDP}, 0},
		// Same but TCP: falls to default rule 5.
		{packet.Header{SIP: ip(175, 77, 88, 155), DIP: ip(192, 168, 0, 9), SP: 23, DP: 999, Proto: ProtoTCP}, 5},
		// Rule 1: exact SIP, any DIP, SP in [10,13], TCP.
		{packet.Header{SIP: ip(11, 77, 88, 2), DIP: ip(1, 2, 3, 4), SP: 12, DP: 5, Proto: ProtoTCP}, 1},
		// Rule 2: 20/8 -> 35.11/16, DP <= 1023 (DROP).
		{packet.Header{SIP: ip(20, 200, 3, 4), DIP: ip(35, 11, 9, 9), SP: 7, DP: 80, Proto: ProtoTCP}, 2},
		// Rule 3: 10.10/16 -> 33/8, DP >= 1024.
		{packet.Header{SIP: ip(10, 10, 3, 4), DIP: ip(33, 1, 2, 3), SP: 7, DP: 8080, Proto: ProtoUDP}, 3},
		// Rule 4: ICMP.
		{packet.Header{SIP: ip(88, 99, 1, 1), DIP: ip(3, 0, 0, 77), SP: 0, DP: 0, Proto: ProtoICMP}, 4},
		// Default.
		{packet.Header{SIP: ip(9, 9, 9, 9), DIP: ip(9, 9, 9, 9), SP: 1, DP: 1, Proto: 99}, 5},
	}
	for i, c := range cases {
		if got := rs.FirstMatch(c.h); got != c.want {
			t.Errorf("case %d (%s): FirstMatch = %d, want %d", i, c.h, got, c.want)
		}
	}
	if rs.Rules[2].Action.Kind != Drop {
		t.Fatal("rule 2 should be DROP")
	}
}

func ip(a, b, c, d byte) uint32 {
	return uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
}

func TestAllMatchesPriorityOrder(t *testing.T) {
	rs := SampleRuleSet()
	h := packet.Header{SIP: ip(20, 0, 0, 1), DIP: ip(35, 11, 0, 1), SP: 5, DP: 80, Proto: ProtoTCP}
	ms := rs.AllMatches(h)
	// Matches rule 2 (drop) and the default rule 5.
	if len(ms) != 2 || ms[0] != 2 || ms[1] != 5 {
		t.Fatalf("AllMatches = %v, want [2 5]", ms)
	}
	if fm := rs.FirstMatch(h); fm != ms[0] {
		t.Fatalf("FirstMatch %d != AllMatches[0] %d", fm, ms[0])
	}
}

func TestValidateRejects(t *testing.T) {
	if err := New(nil).Validate(); err == nil {
		t.Fatal("empty ruleset validated")
	}
	bad := NewWildcardRule(Action{})
	bad.SP = PortRange{Lo: 10, Hi: 1}
	if err := New([]Rule{bad}).Validate(); err == nil {
		t.Fatal("inverted range validated")
	}
	bad2 := NewWildcardRule(Action{})
	bad2.SIP.Bits = 16
	if err := New([]Rule{bad2}).Validate(); err == nil {
		t.Fatal("wrong field width validated")
	}
	bad3 := NewWildcardRule(Action{})
	bad3.DIP = Prefix{Value: 1, Bits: 32, Len: 8} // value bits below prefix
	if err := New([]Rule{bad3}).Validate(); err == nil {
		t.Fatal("non-canonical prefix validated")
	}
}

func TestExpandParentMapping(t *testing.T) {
	rs := SampleRuleSet()
	ex := rs.Expand()
	if ex.NumRules != rs.Len() {
		t.Fatalf("NumRules = %d", ex.NumRules)
	}
	if ex.Len() < rs.Len() {
		t.Fatalf("expanded %d < rules %d", ex.Len(), rs.Len())
	}
	// Parents contiguous and non-decreasing.
	for i := 1; i < ex.Len(); i++ {
		if ex.Parent[i] < ex.Parent[i-1] {
			t.Fatalf("parents out of order at %d: %v", i, ex.Parent)
		}
	}
	// Rule 1 has SP range [10,13] = 2 prefixes {10-11, 12-13}.
	count1 := 0
	for _, p := range ex.Parent {
		if p == 1 {
			count1++
		}
	}
	if count1 != 2 {
		t.Fatalf("rule 1 expanded to %d entries, want 2", count1)
	}
}

func TestExpandedFirstMatchEqualsRuleSet(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 20; trial++ {
		rs := Generate(GenConfig{N: 40, Profile: Profile(trial % 3), Seed: int64(trial), DefaultRule: trial%2 == 0})
		ex := rs.Expand()
		for probe := 0; probe < 200; probe++ {
			var h packet.Header
			if probe%2 == 0 {
				h = RandomHeader(rng)
			} else {
				h = HeaderInRule(rs.Rules[rng.Intn(rs.Len())], rng)
			}
			if got, want := ex.FirstMatch(h.Key()), rs.FirstMatch(h); got != want {
				t.Fatalf("profile %v: expanded FirstMatch=%d ruleset=%d for %s", trial%3, got, want, h)
			}
		}
	}
}

func TestParentRulesDedup(t *testing.T) {
	ex := &Expanded{Parent: []int{0, 0, 1, 3, 3, 3, 7}, NumRules: 8}
	got := ex.ParentRules([]int{0, 1, 2, 3, 4, 5, 6})
	want := []int{0, 1, 3, 7}
	if len(got) != len(want) {
		t.Fatalf("ParentRules = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ParentRules = %v, want %v", got, want)
		}
	}
}

func TestExpansionFactor(t *testing.T) {
	rs := New([]Rule{
		NewWildcardRule(Action{}), // factor 1
		{SIP: Prefix{Bits: 32}, DIP: Prefix{Bits: 32},
			SP: PortRange{Lo: 1, Hi: 65534}, DP: PortRange{Lo: 1, Hi: 65534},
			Proto: AnyProtocol}, // factor 900 = 30*30
	})
	if got := rs.ExpansionFactor(); got != (1+900)/2.0 {
		t.Fatalf("ExpansionFactor = %v", got)
	}
	if New(nil).ExpansionFactor() != 0 {
		t.Fatal("empty ExpansionFactor != 0")
	}
}

// Expand sizes its tables once: the expansion, its two slices, and no
// per-rule slice, whatever N.
func TestExpandAllocs(t *testing.T) {
	for _, n := range []int{64, 4096} {
		rs := Generate(GenConfig{N: n, Profile: PrefixOnly, Seed: 2, DefaultRule: true})
		if allocs := testing.AllocsPerRun(5, func() { rs.Expand() }); allocs > 4 {
			t.Fatalf("N=%d: Expand allocates %v times", n, allocs)
		}
	}
}

func BenchmarkExpand(b *testing.B) {
	for _, p := range []struct {
		name    string
		profile Profile
	}{{"prefix", PrefixOnly}, {"fw", FirewallProfile}} {
		rs := Generate(GenConfig{N: 32768, Profile: p.profile, Seed: 1, DefaultRule: true})
		b.Run(p.name+"/N32768", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if rs.Expand().Len() < rs.Len() {
					b.Fatal("expansion lost rules")
				}
			}
		})
	}
}
