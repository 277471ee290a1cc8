package ruleset

import (
	"math/rand"
	"strings"
	"testing"

	"pktclass/internal/packet"
)

func TestTernaryFromPrefixesMatchesRule(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		r := genPrefixOnlyRule(rng) // expansion factor 1 by construction
		entries := r.TernaryEntries()
		if len(entries) != 1 {
			t.Fatalf("prefix-only rule expanded to %d entries", len(entries))
		}
		tern := entries[0]
		for probe := 0; probe < 30; probe++ {
			var h packet.Header
			if probe%2 == 0 {
				h = RandomHeader(rng)
			} else {
				h = HeaderInRule(r, rng)
			}
			if tern.Matches(h) != r.Matches(h) {
				t.Fatalf("rule %s vs ternary %s disagree on %s", r, tern, h)
			}
		}
	}
}

func TestTernaryEntriesEquivalentToRule(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 150; trial++ {
		r := genFeatureFreeRule(rng) // arbitrary ranges -> multi-entry expansion
		entries := r.TernaryEntries()
		if len(entries) != r.ExpansionFactor() {
			t.Fatalf("entries %d != ExpansionFactor %d", len(entries), r.ExpansionFactor())
		}
		for probe := 0; probe < 30; probe++ {
			var h packet.Header
			if probe%2 == 0 {
				h = RandomHeader(rng)
			} else {
				h = HeaderInRule(r, rng)
			}
			any := false
			for _, e := range entries {
				if e.Matches(h) {
					any = true
					break
				}
			}
			if any != r.Matches(h) {
				t.Fatalf("rule %s: union-of-entries=%v rule-match=%v for %s", r, any, r.Matches(h), h)
			}
		}
	}
}

func TestTernaryStringFormat(t *testing.T) {
	r := Rule{
		SIP:   mustPfx(t, "255.0.0.0/8"),
		DIP:   mustPfx(t, "0.0.0.0/0"),
		SP:    ExactPort(0xFFFF),
		DP:    FullPortRange,
		Proto: ExactProtocol(0x00),
	}
	tern := r.TernaryEntries()[0]
	s := tern.String()
	want := "11111111" + strings.Repeat("*", 24) +
		"." + strings.Repeat("*", 32) +
		"." + strings.Repeat("1", 16) +
		"." + strings.Repeat("*", 16) +
		"." + strings.Repeat("0", 8)
	if s != want {
		t.Fatalf("ternary string\n got %s\nwant %s", s, want)
	}
}

func TestParseTernaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 100; trial++ {
		r := genFeatureFreeRule(rng)
		for _, e := range r.TernaryEntries() {
			back, err := ParseTernary(e.String())
			if err != nil {
				t.Fatal(err)
			}
			if back != e {
				t.Fatalf("round trip failed for %s", e)
			}
		}
	}
}

func TestParseTernaryErrors(t *testing.T) {
	if _, err := ParseTernary("01*"); err == nil {
		t.Fatal("accepted short string")
	}
	if _, err := ParseTernary(strings.Repeat("2", packet.W)); err == nil {
		t.Fatal("accepted invalid symbol")
	}
	if _, err := ParseTernary(strings.Repeat("1", packet.W+1)); err == nil {
		t.Fatal("accepted long string")
	}
}

func TestTernaryBit(t *testing.T) {
	tern, err := ParseTernary(strings.Repeat("1", 8) + strings.Repeat("0", 8) + strings.Repeat("*", packet.W-16))
	if err != nil {
		t.Fatal(err)
	}
	if tern.Bit(0) != '1' || tern.Bit(8) != '0' || tern.Bit(20) != '*' {
		t.Fatalf("Bit values wrong: %c %c %c", tern.Bit(0), tern.Bit(8), tern.Bit(20))
	}
}

func mustPfx(t *testing.T, s string) Prefix {
	t.Helper()
	p, err := ParseIPv4Prefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// setFieldBitsRef is the bit-at-a-time packer ternaryFromPrefixes replaced,
// kept as its reference: it writes the (value, mask) pair of a field into
// the ternary word at the given bit offset, MSB of the field first.
func setFieldBitsRef(t *Ternary, off, bits int, value, mask uint32) {
	for b := 0; b < bits; b++ {
		i := off + b
		bit := uint(7 - i&7)
		if mask>>uint(bits-1-b)&1 == 1 {
			t.Mask[i>>3] |= 1 << bit
			if value>>uint(bits-1-b)&1 == 1 {
				t.Value[i>>3] |= 1 << bit
			}
		}
	}
}

// The field-at-a-time packer writes the word the bit-at-a-time one wrote,
// for every prefix length of every field, with junk below the prefix (and,
// for the ports, above the field) and for masked protocols.
func TestTernaryFromPrefixesEqualsBitPacker(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	check := func(sip, dip, sp, dp Prefix, proto Protocol) {
		t.Helper()
		var want Ternary
		setFieldBitsRef(&want, packet.SIPOff, packet.SIPBits, sip.Value, sip.Mask())
		setFieldBitsRef(&want, packet.DIPOff, packet.DIPBits, dip.Value, dip.Mask())
		setFieldBitsRef(&want, packet.SPOff, packet.SPBits, sp.Value, sp.Mask())
		setFieldBitsRef(&want, packet.DPOff, packet.DPBits, dp.Value, dp.Mask())
		setFieldBitsRef(&want, packet.ProtoOff, packet.ProtoBits, uint32(proto.Value), uint32(proto.Mask))
		if got := ternaryFromPrefixes(sip, dip, sp, dp, proto); got != want {
			t.Fatalf("%v %v %v %v %v:\n got %s\nwant %s", sip, dip, sp, dp, proto, got, want)
		}
	}
	protos := []Protocol{AnyProtocol, ExactProtocol(ProtoTCP), {Value: 0xFF, Mask: 0xF0}, {Value: 0xA5, Mask: 0x5A}, {Value: 0xFF, Mask: 0}}
	for ipLen := 0; ipLen <= 32; ipLen++ {
		for portLen := 0; portLen <= 16; portLen++ {
			// Raw values: bits below the prefix length stay set, which
			// NewPrefix would have cleared.
			sip := Prefix{Value: rng.Uint32(), Bits: 32, Len: ipLen}
			dip := Prefix{Value: rng.Uint32(), Bits: 32, Len: 32 - ipLen}
			sp := Prefix{Value: rng.Uint32(), Bits: 16, Len: portLen}
			dp := Prefix{Value: rng.Uint32(), Bits: 16, Len: 16 - portLen}
			check(sip, dip, sp, dp, protos[rng.Intn(len(protos))])
			check(dip, sip, dp, sp, Protocol{Value: uint8(rng.Intn(256)), Mask: uint8(rng.Intn(256))})
		}
	}
}

// ExpansionFactor counts what TernaryEntries builds, without building it.
func TestExpansionFactorCountsEntries(t *testing.T) {
	for _, profile := range []Profile{FirewallProfile, FeatureFree} {
		rs := Generate(GenConfig{N: 300, Profile: profile, Seed: 21, DefaultRule: true})
		total := 0
		for i, r := range rs.Rules {
			if got, want := r.ExpansionFactor(), len(r.TernaryEntries()); got != want {
				t.Fatalf("%v rule %d (%s): ExpansionFactor %d, %d entries", profile, i, r, got, want)
			}
			total += r.ExpansionFactor()
		}
		if total == rs.Len() {
			t.Fatalf("%v: no rule expands", profile)
		}
		if allocs := testing.AllocsPerRun(10, func() { rs.ExpansionFactor() }); allocs != 0 {
			t.Fatalf("%v: ExpansionFactor allocates %v times", profile, allocs)
		}
	}
}
