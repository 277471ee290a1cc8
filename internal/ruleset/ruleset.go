package ruleset

import (
	"fmt"

	"pktclass/internal/packet"
)

// RuleSet is an ordered classifier: index 0 is the highest-priority rule.
//
// A built RuleSet is shared read-only between the serving snapshot and
// every engine constructed over it; mutate a Clone (see update.ApplyToRuleSet)
// or carry an //pclass:allow-mutate escape at an audited write.
//
//pclass:immutable shared across classifier goroutines after construction
type RuleSet struct {
	Rules []Rule
}

// New returns a RuleSet over the given rules (aliased, not copied).
func New(rules []Rule) *RuleSet { return &RuleSet{Rules: rules} }

// Len returns the number of rules N.
func (rs *RuleSet) Len() int { return len(rs.Rules) }

// Clone returns a ruleset with its own copy of the rule slice, so updates
// to the clone never alias the original. Rule values are plain data, so a
// shallow per-rule copy is a full copy.
func (rs *RuleSet) Clone() *RuleSet {
	return &RuleSet{Rules: append([]Rule(nil), rs.Rules...)}
}

// Validate checks every rule and the set as a whole.
func (rs *RuleSet) Validate() error {
	if len(rs.Rules) == 0 {
		return fmt.Errorf("ruleset: empty ruleset")
	}
	for i, r := range rs.Rules {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("rule %d: %w", i, err)
		}
	}
	return nil
}

// FirstMatch returns the index of the highest-priority rule matching h, or
// -1. This linear scan is the semantic ground truth every engine in the
// repository is differentially tested against.
func (rs *RuleSet) FirstMatch(h packet.Header) int {
	for i, r := range rs.Rules {
		if r.Matches(h) {
			return i
		}
	}
	return -1
}

// AllMatches returns the indices of every rule matching h in priority order
// (the multi-match result IDS-style applications need).
func (rs *RuleSet) AllMatches(h packet.Header) []int {
	var out []int
	for i, r := range rs.Rules {
		if r.Matches(h) {
			out = append(out, i)
		}
	}
	return out
}

// Expanded is a ruleset lowered to ternary form: one entry per
// (rule × port-prefix cross product) with a map back to the parent rule.
// Both hardware engines operate on this representation; Parent converts an
// entry-level match back into a rule-level result.
//
//pclass:immutable engines share one expansion; copy-on-write before updating
type Expanded struct {
	Entries []Ternary
	// Parent[i] is the rule index entry i was expanded from. Entries of the
	// same rule are contiguous and rules appear in priority order, so the
	// first matching entry always belongs to the highest-priority matching
	// rule.
	Parent []int
	// NumRules is the original rule count N.
	NumRules int
}

// Expand lowers the ruleset to ternary entries.
func (rs *RuleSet) Expand() *Expanded {
	ne := 0
	for _, r := range rs.Rules {
		ne += r.ExpansionFactor()
	}
	ex := &Expanded{Entries: make([]Ternary, 0, ne), Parent: make([]int, 0, ne), NumRules: len(rs.Rules)}
	for i, r := range rs.Rules {
		ex.Entries = r.appendTernaryEntries(ex.Entries)
		for len(ex.Parent) < len(ex.Entries) {
			ex.Parent = append(ex.Parent, i)
		}
	}
	return ex
}

// Len returns the expanded entry count Ne >= N.
func (ex *Expanded) Len() int { return len(ex.Entries) }

// FirstMatch returns the highest-priority *rule* index matching the key
// under ternary semantics, or -1.
func (ex *Expanded) FirstMatch(k packet.Key) int {
	for i := range ex.Entries {
		if ex.Entries[i].MatchesKey(k) {
			return ex.Parent[i]
		}
	}
	return -1
}

// ParentRules maps entry-level match indices to deduplicated rule indices in
// priority order.
func (ex *Expanded) ParentRules(entryIdx []int) []int {
	out := make([]int, 0, len(entryIdx))
	last := -1
	for _, e := range entryIdx {
		p := ex.Parent[e]
		// Entries of one rule are contiguous and entryIdx is ascending, so
		// duplicates of the same parent are adjacent.
		if p != last {
			out = append(out, p)
			last = p
		}
	}
	return out
}

// ExpansionFactor returns Ne/N, the average ternary blow-up of the set.
func (rs *RuleSet) ExpansionFactor() float64 {
	if len(rs.Rules) == 0 {
		return 0
	}
	total := 0
	for _, r := range rs.Rules {
		total += r.ExpansionFactor()
	}
	return float64(total) / float64(len(rs.Rules))
}

// SampleRuleSet returns the paper's Table I example classifier (six rules;
// the concrete IPs/ports are representative values for the table's
// prefix/range/exact shapes).
func SampleRuleSet() *RuleSet {
	mustPrefix := func(s string) Prefix {
		p, err := ParseIPv4Prefix(s)
		if err != nil {
			panic("ruleset: sample prefix invalid: " + err.Error())
		}
		return p
	}
	return New([]Rule{
		{
			SIP: mustPrefix("175.77.88.155/32"), DIP: mustPrefix("192.168.0.0/24"),
			SP: ExactPort(23), DP: FullPortRange,
			Proto: ExactProtocol(ProtoUDP), Action: Action{Kind: Forward, Port: 1},
		},
		{
			SIP: mustPrefix("11.77.88.2/32"), DIP: mustPrefix("0.0.0.0/0"),
			SP: PortRange{Lo: 10, Hi: 13}, DP: FullPortRange,
			Proto: ExactProtocol(ProtoTCP), Action: Action{Kind: Forward, Port: 1},
		},
		{
			SIP: mustPrefix("20.0.0.0/8"), DIP: mustPrefix("35.11.0.0/16"),
			SP: FullPortRange, DP: PortRange{Lo: 0, Hi: 1023},
			Proto: AnyProtocol, Action: Action{Kind: Drop},
		},
		{
			SIP: mustPrefix("10.10.0.0/16"), DIP: mustPrefix("33.0.0.0/8"),
			SP: FullPortRange, DP: PortRange{Lo: 1024, Hi: 65535},
			Proto: AnyProtocol, Action: Action{Kind: Forward, Port: 2},
		},
		{
			SIP: mustPrefix("88.99.0.0/16"), DIP: mustPrefix("3.0.0.0/24"),
			SP: FullPortRange, DP: FullPortRange,
			Proto: ExactProtocol(ProtoICMP), Action: Action{Kind: Forward, Port: 4},
		},
		NewWildcardRule(Action{Kind: Forward, Port: 3}),
	})
}
