package ruleset

import (
	"fmt"
	"math/rand"
)

// Profile selects the statistical shape of generated rulesets. Both engines
// under study are ruleset-feature independent, so the profiles exist to
// prove exactly that: costs must come out identical across profiles for
// equal N.
//
//pclass:exhaustive switches must cover every profile or panic
type Profile int

const (
	// FirewallProfile resembles access-control lists: specific source/dest
	// prefixes, mostly wildcard source ports, well-known or ranged
	// destination ports, concrete protocols, a trailing default rule.
	FirewallProfile Profile = iota
	// FeatureFree draws every field independently and uniformly, providing
	// none of the structure (shared prefixes, few unique port ranges) that
	// feature-reliant classifiers exploit.
	FeatureFree
	// PrefixOnly emits rules whose port fields are single prefixes, so the
	// ternary expansion factor is exactly 1 (Ne == N). The paper's hardware
	// sizing is in TCAM entries; this profile makes N the entry count. It
	// stays last: ParseProfile stops at it.
	PrefixOnly
)

func (p Profile) String() string {
	switch p {
	case FirewallProfile:
		return "firewall"
	case FeatureFree:
		return "feature-free"
	case PrefixOnly:
		return "prefix-only"
	}
	return fmt.Sprintf("Profile(%d)", int(p))
}

// ParseProfile is the inverse of Profile.String.
func ParseProfile(name string) (Profile, error) {
	for p := FirewallProfile; p <= PrefixOnly; p++ {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("ruleset: unknown profile %q", name)
}

// GenConfig parameterizes synthetic ruleset generation.
type GenConfig struct {
	N       int     // number of rules
	Profile Profile // statistical shape
	Seed    int64   // deterministic seed
	// DefaultRule appends a trailing full-wildcard rule (counted in N).
	DefaultRule bool
}

// Generate produces a deterministic synthetic ruleset.
func Generate(cfg GenConfig) *RuleSet {
	if cfg.N <= 0 {
		panic(fmt.Sprintf("ruleset: Generate with N=%d", cfg.N))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.N
	if cfg.DefaultRule {
		n--
	}
	rules := make([]Rule, 0, cfg.N)
	for i := 0; i < n; i++ {
		switch cfg.Profile {
		case FirewallProfile:
			rules = append(rules, genFirewallRule(rng))
		case FeatureFree:
			rules = append(rules, genFeatureFreeRule(rng))
		case PrefixOnly:
			rules = append(rules, genPrefixOnlyRule(rng))
		default:
			panic("ruleset: unknown profile " + cfg.Profile.String())
		}
	}
	if cfg.DefaultRule {
		kind := Action{Kind: Forward, Port: 0}
		if rng.Intn(2) == 0 {
			kind = Action{Kind: Drop}
		}
		rules = append(rules, NewWildcardRule(kind))
	}
	return New(rules)
}

func randPrefix(rng *rand.Rand, minLen, maxLen int) Prefix {
	l := minLen + rng.Intn(maxLen-minLen+1)
	p, err := NewPrefix(rng.Uint32(), 32, l)
	if err != nil {
		panic("ruleset: generated prefix invalid: " + err.Error())
	}
	return p
}

func randAction(rng *rand.Rand) Action {
	if rng.Intn(4) == 0 {
		return Action{Kind: Drop}
	}
	return Action{Kind: Forward, Port: rng.Intn(16)}
}

var wellKnownPorts = []uint16{20, 21, 22, 23, 25, 53, 80, 110, 123, 143, 161, 443, 993, 1521, 3306, 8080}

func genFirewallRule(rng *rand.Rand) Rule {
	r := Rule{
		SIP:    randPrefix(rng, 8, 32),
		DIP:    randPrefix(rng, 8, 32),
		SP:     FullPortRange,
		Proto:  ExactProtocol(ProtoTCP),
		Action: randAction(rng),
	}
	switch rng.Intn(10) {
	case 0, 1:
		r.Proto = ExactProtocol(ProtoUDP)
	case 2:
		r.Proto = ExactProtocol(ProtoICMP)
	case 3:
		r.Proto = AnyProtocol
	}
	switch rng.Intn(10) {
	case 0, 1, 2, 3, 4, 5: // exact well-known service port
		r.DP = ExactPort(wellKnownPorts[rng.Intn(len(wellKnownPorts))])
	case 6: // system port range
		r.DP = PortRange{Lo: 0, Hi: 1023}
	case 7: // ephemeral range
		r.DP = PortRange{Lo: 1024, Hi: 65535}
	case 8: // small arbitrary range around a base
		lo := uint16(rng.Intn(60000))
		r.DP = PortRange{Lo: lo, Hi: lo + uint16(rng.Intn(64))}
	case 9:
		r.DP = FullPortRange
	}
	if rng.Intn(8) == 0 { // occasional source-port constraint
		r.SP = ExactPort(wellKnownPorts[rng.Intn(len(wellKnownPorts))])
	}
	return r
}

func genFeatureFreeRule(rng *rand.Rand) Rule {
	randRange := func() PortRange {
		switch rng.Intn(4) {
		case 0:
			return FullPortRange
		case 1:
			return ExactPort(uint16(rng.Intn(65536)))
		default:
			a, b := uint16(rng.Intn(65536)), uint16(rng.Intn(65536))
			if a > b {
				a, b = b, a
			}
			return PortRange{Lo: a, Hi: b}
		}
	}
	proto := AnyProtocol
	if rng.Intn(2) == 0 {
		proto = ExactProtocol(uint8(rng.Intn(256)))
	}
	return Rule{
		SIP:    randPrefix(rng, 0, 32),
		DIP:    randPrefix(rng, 0, 32),
		SP:     randRange(),
		DP:     randRange(),
		Proto:  proto,
		Action: randAction(rng),
	}
}

func genPrefixOnlyRule(rng *rand.Rand) Rule {
	randPrefixRange := func() PortRange {
		// Draw a random 16-bit prefix and return its covered interval,
		// which converts back to exactly one ternary entry.
		l := rng.Intn(17)
		v := uint32(rng.Intn(65536)) & prefixMask(16, l)
		p := Prefix{Value: v, Bits: 16, Len: l}
		lo, hi := p.Range()
		return PortRange{Lo: uint16(lo), Hi: uint16(hi)}
	}
	proto := AnyProtocol
	if rng.Intn(2) == 0 {
		proto = ExactProtocol(uint8(rng.Intn(256)))
	}
	return Rule{
		SIP:    randPrefix(rng, 0, 32),
		DIP:    randPrefix(rng, 0, 32),
		SP:     randPrefixRange(),
		DP:     randPrefixRange(),
		Proto:  proto,
		Action: randAction(rng),
	}
}
