package ruleset

import (
	"math/rand"
	"testing"
)

func TestGenerateDeterministic(t *testing.T) {
	for _, p := range []Profile{FirewallProfile, FeatureFree, PrefixOnly} {
		a := Generate(GenConfig{N: 100, Profile: p, Seed: 42, DefaultRule: true})
		b := Generate(GenConfig{N: 100, Profile: p, Seed: 42, DefaultRule: true})
		if a.Len() != b.Len() {
			t.Fatalf("%v: lengths differ", p)
		}
		for i := range a.Rules {
			if a.Rules[i] != b.Rules[i] {
				t.Fatalf("%v: rule %d differs between identical seeds", p, i)
			}
		}
		c := Generate(GenConfig{N: 100, Profile: p, Seed: 43})
		same := true
		for i := range a.Rules {
			if a.Rules[i] != c.Rules[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("%v: different seeds produced identical rulesets", p)
		}
	}
}

func TestGenerateValidates(t *testing.T) {
	for _, p := range []Profile{FirewallProfile, FeatureFree, PrefixOnly} {
		for seed := int64(0); seed < 5; seed++ {
			rs := Generate(GenConfig{N: 200, Profile: p, Seed: seed, DefaultRule: seed%2 == 0})
			if err := rs.Validate(); err != nil {
				t.Fatalf("%v seed %d: %v", p, seed, err)
			}
			if rs.Len() != 200 {
				t.Fatalf("%v: N = %d", p, rs.Len())
			}
		}
	}
}

func TestGeneratePanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Generate(N=0) did not panic")
		}
	}()
	Generate(GenConfig{N: 0})
}

func TestPrefixOnlyExpansionFactorIsOne(t *testing.T) {
	rs := Generate(GenConfig{N: 500, Profile: PrefixOnly, Seed: 7})
	if f := rs.ExpansionFactor(); f != 1 {
		t.Fatalf("PrefixOnly expansion factor = %v, want 1", f)
	}
	ex := rs.Expand()
	if ex.Len() != rs.Len() {
		t.Fatalf("expanded %d != %d", ex.Len(), rs.Len())
	}
}

func TestDefaultRuleIsWildcard(t *testing.T) {
	rs := Generate(GenConfig{N: 10, Profile: FirewallProfile, Seed: 1, DefaultRule: true})
	last := rs.Rules[rs.Len()-1]
	if !last.SIP.Wildcard() || !last.DIP.Wildcard() || !last.SP.Wildcard() ||
		!last.DP.Wildcard() || !last.Proto.Wildcard() {
		t.Fatalf("last rule not a wildcard: %+v", last)
	}
}

func TestFirewallProfileShape(t *testing.T) {
	rs := Generate(GenConfig{N: 1000, Profile: FirewallProfile, Seed: 3})
	exactDP, wildcardSP := 0, 0
	for _, r := range rs.Rules {
		if r.DP.Exact() {
			exactDP++
		}
		if r.SP.Wildcard() {
			wildcardSP++
		}
	}
	// The profile is biased toward service-port matching.
	if exactDP < 400 {
		t.Fatalf("only %d/1000 exact destination ports", exactDP)
	}
	if wildcardSP < 700 {
		t.Fatalf("only %d/1000 wildcard source ports", wildcardSP)
	}
}

func TestTraceDeterministicAndDirected(t *testing.T) {
	rs := Generate(GenConfig{N: 64, Profile: FirewallProfile, Seed: 11, DefaultRule: false})
	cfg := TraceConfig{Count: 500, MatchFraction: 1.0, Locality: 0.5, Seed: 21}
	a := GenerateTrace(rs, cfg)
	b := GenerateTrace(rs, cfg)
	if len(a) != 500 || len(b) != 500 {
		t.Fatalf("trace lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace not deterministic at %d", i)
		}
	}
	// With MatchFraction 1 every header matches some rule.
	for i, h := range a {
		if rs.FirstMatch(h) == -1 {
			t.Fatalf("directed header %d (%s) matches nothing", i, h)
		}
	}
}

func TestTraceMatchFractionZero(t *testing.T) {
	// A ruleset with a single very specific rule: uniform headers should
	// essentially never match it.
	r := Rule{
		SIP: Prefix{Value: 0x01020304, Bits: 32, Len: 32},
		DIP: Prefix{Value: 0x05060708, Bits: 32, Len: 32},
		SP:  ExactPort(1), DP: ExactPort(2), Proto: ExactProtocol(3),
	}
	rs := New([]Rule{r})
	tr := GenerateTrace(rs, TraceConfig{Count: 1000, MatchFraction: 0, Seed: 9})
	hits := 0
	for _, h := range tr {
		if rs.FirstMatch(h) != -1 {
			hits++
		}
	}
	if hits != 0 {
		t.Fatalf("%d/1000 uniform headers hit a 1-in-2^104 rule", hits)
	}
}

func TestHeaderInRuleAlwaysMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 200; trial++ {
		var r Rule
		switch trial % 3 {
		case 0:
			r = genFirewallRule(rng)
		case 1:
			r = genFeatureFreeRule(rng)
		case 2:
			r = genPrefixOnlyRule(rng)
		}
		for probe := 0; probe < 10; probe++ {
			h := HeaderInRule(r, rng)
			if !r.Matches(h) {
				t.Fatalf("headerInRule produced non-matching header %s for %s", h, r)
			}
		}
	}
}

func TestHeaderInMaskedProtocolRule(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	r := NewWildcardRule(Action{})
	r.Proto = Protocol{Value: 0x06, Mask: 0x0F}
	seenUpperBits := false
	for i := 0; i < 200; i++ {
		h := HeaderInRule(r, rng)
		if !r.Matches(h) {
			t.Fatalf("masked-proto header does not match: %02x", h.Proto)
		}
		if h.Proto&0xF0 != 0 {
			seenUpperBits = true
		}
	}
	if !seenUpperBits {
		t.Fatal("don't-care protocol bits never varied")
	}
}

func TestParseProfileRoundTrips(t *testing.T) {
	for _, p := range []Profile{FirewallProfile, FeatureFree, PrefixOnly} {
		got, err := ParseProfile(p.String())
		if err != nil || got != p {
			t.Fatalf("ParseProfile(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	for _, name := range []string{"", "prefixonly", "Firewall", "acl", "Profile(3)"} {
		if p, err := ParseProfile(name); err == nil {
			t.Fatalf("ParseProfile(%q) = %v, want an error", name, p)
		}
	}
}
