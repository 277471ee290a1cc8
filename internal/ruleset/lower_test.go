package ruleset

import (
	"math/bits"
	"math/rand"
	"strings"
	"testing"
)

// coverEdgeRanges are port ranges at the edges of the cover lowering: a
// range straddling 2^15 (its smallest covering prefix is all 65 536
// ports), single ports, the full range, the two halves, and [1, 2^j−1] for
// every j, whose cover is the 2^j block the range misses port 0 of.
func coverEdgeRanges() []PortRange {
	ranges := []PortRange{
		{Lo: 32767, Hi: 32768}, {Lo: 32000, Hi: 33000}, {Lo: 1, Hi: 65534},
		ExactPort(0), ExactPort(80), ExactPort(32768), ExactPort(65535),
		FullPortRange, {Lo: 0, Hi: 32767}, {Lo: 32768, Hi: 65535},
	}
	for j := 1; j <= 16; j++ {
		ranges = append(ranges, PortRange{Lo: 1, Hi: uint16(1<<j - 1)})
	}
	return ranges
}

// coverEdgeRuleSet pairs every edge range as a source port with three
// destination ranges, under short address prefixes so a header falls
// inside many rules' covers and the bounds decide.
func coverEdgeRuleSet(seed int64) *RuleSet {
	rng := rand.New(rand.NewSource(seed))
	ranges := coverEdgeRanges()
	var rules []Rule
	for i, sp := range ranges {
		for _, dp := range []PortRange{ranges[(7*i+3)%len(ranges)], FullPortRange, sp} {
			rules = append(rules, Rule{
				SIP: randPrefix(rng, 0, 2), DIP: randPrefix(rng, 0, 2),
				SP: sp, DP: dp, Proto: AnyProtocol, Action: randAction(rng),
			})
		}
	}
	return New(rules)
}

// smallestCover is the smallest prefix covering r: the bits r.Lo and r.Hi
// share.
func smallestCover(r PortRange) Prefix {
	n := bits.LeadingZeros16(r.Lo ^ r.Hi)
	return Prefix{Value: uint32(r.Lo) & prefixMask(16, n), Bits: 16, Len: n}
}

// TestLowerEqualsRuleDerivation: for every rule of every generator profile
// (the three Profiles and the three ClassBench seeds) and of the cover
// edge set, Lower's entry equals the one derived straight from the rule:
// its address and protocol fields with the smallest covering prefix of
// each port range, and the rule's own port ranges as bounds.
func TestLowerEqualsRuleDerivation(t *testing.T) {
	sets := map[string]*RuleSet{"cover edges": coverEdgeRuleSet(1)}
	for p := FirewallProfile; p <= PrefixOnly; p++ {
		sets[p.String()] = Generate(GenConfig{N: 300, Profile: p, Seed: 11, DefaultRule: true})
	}
	for name, seed := range map[string]*Seed{"acl": ACLSeed(), "fw": FWSeed(), "ipc": IPCSeed()} {
		rs, err := GenerateFromSeed(seed, 300, 12)
		if err != nil {
			t.Fatal(err)
		}
		sets[name] = rs
	}
	for name, rs := range sets {
		ex := rs.Expand()
		got := ex.Lower()
		if len(got) != rs.Len() {
			t.Fatalf("%s: %d lowered entries for %d rules", name, len(got), rs.Len())
		}
		widened := 0
		for i, r := range rs.Rules {
			want := ExtendedEntry{
				Cover: ternaryFromPrefixes(r.SIP, r.DIP, smallestCover(r.SP), smallestCover(r.DP), r.Proto),
				SP:    r.SP, DP: r.DP,
			}
			if got[i] != want {
				t.Fatalf("%s: rule %d (%s) lowers to %s [%s] [%s], want %s [%s] [%s]",
					name, i, r, got[i].Cover, got[i].SP, got[i].DP, want.Cover, want.SP, want.DP)
			}
			if r.ExpansionFactor() > 1 {
				widened++
			}
		}
		t.Logf("%s: %d rules, %d entries, %d rules folded from several entries", name, rs.Len(), ex.Len(), widened)
	}
}

// TestLowerEntryBounds: a single entry's bounds are its port fields' lowest
// and highest admitted ports, so a prefix field's bounds are exactly its
// range and a disabled entry stays disabled.
func TestLowerEntryBounds(t *testing.T) {
	for _, r := range coverEdgeRanges() {
		for _, p := range r.Prefixes() {
			lo, hi := p.Range()
			x := LowerEntry(ternaryFromPrefixes(Prefix{Bits: 32}, Prefix{Bits: 32}, p, Prefix{Bits: 16}, AnyProtocol))
			if x.SP != (PortRange{Lo: uint16(lo), Hi: uint16(hi)}) || x.DP != FullPortRange {
				t.Fatalf("prefix %s lowers to bounds [%s] [%s]", p, x.SP, x.DP)
			}
		}
	}
	if x := LowerEntry(InvalidTernary()); !x.Cover.Invalid {
		t.Fatal("a disabled entry lowered to an enabled cover")
	}
}

// TestLowerRejectsBrokenRuns: a run that is not the cross product of its
// bounds' prefix covers, a rule whose entries are split, and a rule
// without entries.
func TestLowerRejectsBrokenRuns(t *testing.T) {
	rs := New([]Rule{
		NewWildcardRule(Action{}),
		{SIP: Prefix{Bits: 32}, DIP: Prefix{Bits: 32}, SP: PortRange{Lo: 1, Hi: 6}, DP: FullPortRange, Proto: AnyProtocol},
		NewWildcardRule(Action{}),
	})
	ex := rs.Expand() // rule 1 expands to [1,1] [2,3] [4,5] [6,6]
	mustPanic := func(name, want string, ex *Expanded) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, want) {
				t.Fatalf("%s: panic %q, want one containing %q", name, msg, want)
			}
		}()
		ex.Lower()
	}
	short := &Expanded{
		Entries:  append(append([]Ternary(nil), ex.Entries[:2]...), ex.Entries[3:]...),
		Parent:   append(append([]int(nil), ex.Parent[:2]...), ex.Parent[3:]...),
		NumRules: 3,
	}
	mustPanic("a dropped entry", "lowering rule 1: 3 entries, but its port bounds [1 : 6] × [0 : 65535] expand to 4", short)
	split := &Expanded{Entries: ex.Entries, Parent: append([]int(nil), ex.Parent...), NumRules: 3}
	split.Parent[2] = 2
	mustPanic("a split run", "lowering rule 1: its entries are not one run", split)
	disabled := &Expanded{Entries: append([]Ternary(nil), ex.Entries...), Parent: ex.Parent, NumRules: 3}
	disabled.Entries[2] = InvalidTernary()
	mustPanic("a disabled entry in a run", "lowering rule 1: a disabled entry in a run of 4", disabled)

	empty := &Expanded{Entries: ex.Entries[:1], Parent: ex.Parent[:1], NumRules: 2}
	if x := empty.Lower(); !x[1].Cover.Invalid || x[0].Cover.Invalid {
		t.Fatalf("a rule without entries lowered to %+v", x[1])
	}
}
