package ruleset

import (
	"fmt"

	"pktclass/internal/packet"
)

// ActionKind says what a matching rule does with the packet.
type ActionKind uint8

const (
	// Forward sends the packet to Action.Port.
	Forward ActionKind = iota
	// Drop discards the packet (firewall deny).
	Drop
)

// Action is the forwarding decision attached to a rule (the paper's
// "PORT n" / "DROP" column in Table I).
type Action struct {
	Kind ActionKind
	Port int // output port, meaningful for Forward
}

// String renders "PORT n" or "DROP".
func (a Action) String() string {
	if a.Kind == Drop {
		return "DROP"
	}
	return fmt.Sprintf("PORT %d", a.Port)
}

// Rule is one 5-field classification rule. Priority is implicit: a rule's
// position in its RuleSet (lower index = higher priority).
type Rule struct {
	SIP    Prefix    // source IP prefix
	DIP    Prefix    // destination IP prefix
	SP     PortRange // source port arbitrary range
	DP     PortRange // destination port arbitrary range
	Proto  Protocol  // protocol exact/wildcard
	Action Action
}

// NewWildcardRule returns a rule matching every packet, with the given
// action — the conventional default/last rule of a firewall classifier.
func NewWildcardRule(a Action) Rule {
	return Rule{
		SIP: Prefix{Bits: 32}, DIP: Prefix{Bits: 32},
		SP: FullPortRange, DP: FullPortRange,
		Proto:  AnyProtocol,
		Action: a,
	}
}

// Matches reports whether the header matches all five fields of the rule.
func (r Rule) Matches(h packet.Header) bool {
	return r.SIP.Matches(h.SIP) &&
		r.DIP.Matches(h.DIP) &&
		r.SP.Matches(h.SP) &&
		r.DP.Matches(h.DP) &&
		r.Proto.Matches(h.Proto)
}

// Validate checks field invariants.
func (r Rule) Validate() error {
	for _, f := range []struct {
		name string
		p    Prefix
	}{{"SIP", r.SIP}, {"DIP", r.DIP}} {
		if f.p.Bits != 32 {
			return fmt.Errorf("ruleset: %s width %d, want 32", f.name, f.p.Bits)
		}
		if f.p.Len < 0 || f.p.Len > 32 {
			return fmt.Errorf("ruleset: %s prefix length %d out of range", f.name, f.p.Len)
		}
		if f.p.Value&^f.p.Mask() != 0 {
			return fmt.Errorf("ruleset: %s has value bits below prefix length", f.name)
		}
	}
	if r.SP.Lo > r.SP.Hi {
		return fmt.Errorf("ruleset: inverted SP range [%d,%d]", r.SP.Lo, r.SP.Hi)
	}
	if r.DP.Lo > r.DP.Hi {
		return fmt.Errorf("ruleset: inverted DP range [%d,%d]", r.DP.Lo, r.DP.Hi)
	}
	if r.Action.Port < 0 {
		return fmt.Errorf("ruleset: negative action port %d", r.Action.Port)
	}
	return nil
}

// TernaryEntries expands the rule into ternary words. Prefix and
// exact/masked fields translate directly; each arbitrary port range expands
// into its prefix cover, and the two port fields cross-multiply — the
// 4(w-1)^2 worst case the paper warns about. The expansion order preserves
// semantics: any header matching the rule matches at least one entry, and
// every entry implies the rule.
func (r Rule) TernaryEntries() []Ternary {
	return r.appendTernaryEntries(make([]Ternary, 0, r.ExpansionFactor()))
}

// appendTernaryEntries appends the rule's ternary words (see
// TernaryEntries) to dst.
func (r Rule) appendTernaryEntries(dst []Ternary) []Ternary {
	for sp := r.SP.cover(); sp.next(); {
		for dp := r.DP.cover(); dp.next(); {
			dst = append(dst, ternaryFromPrefixes(r.SIP, r.DIP, sp.prefix, dp.prefix, r.Proto))
		}
	}
	return dst
}

// ExpansionFactor returns how many ternary entries the rule needs.
func (r Rule) ExpansionFactor() int {
	return r.SP.cover().len() * r.DP.cover().len()
}

// String renders the rule in the text ruleset format (parse.go).
func (r Rule) String() string {
	return fmt.Sprintf("@%s %s %s %s %s %s",
		r.SIP, r.DIP, r.SP, r.DP, r.Proto, r.Action)
}
