package ruleset

import (
	"fmt"
	"strings"

	"pktclass/internal/packet"
)

// Ternary is a 104-bit ternary word: for each bit position, Mask bit 1 means
// the header bit must equal the Value bit; Mask bit 0 means don't-care.
// This is exactly the data+mask pair a TCAM row stores (and why TCAM needs
// twice the storage of a binary CAM, per the paper's Section V-B).
type Ternary struct {
	Value packet.Key
	Mask  packet.Key
	// Invalid marks a disabled entry that matches nothing — the software
	// form of a TCAM row's valid bit. A Value/Mask pair alone cannot
	// express never-match (mask 0 means match-everything), so engines that
	// support entry invalidation record it here and the match paths
	// short-circuit.
	Invalid bool
}

// InvalidTernary returns the canonical disabled entry: it matches no key
// and survives rebuilds and serialization round-trips as disabled.
func InvalidTernary() Ternary { return Ternary{Invalid: true} }

// MatchesKey reports whether the packed header matches the ternary word.
func (t Ternary) MatchesKey(k packet.Key) bool {
	if t.Invalid {
		return false
	}
	for i := 0; i < packet.KeyBytes; i++ {
		if (k[i]^t.Value[i])&t.Mask[i] != 0 {
			return false
		}
	}
	return true
}

// Matches reports whether the header matches the ternary word.
func (t Ternary) Matches(h packet.Header) bool { return t.MatchesKey(h.Key()) }

// Bit returns the ternary symbol at position i: '0', '1' or '*'.
func (t Ternary) Bit(i int) byte {
	if t.Mask.Bit(i) == 0 {
		return '*'
	}
	if t.Value.Bit(i) == 1 {
		return '1'
	}
	return '0'
}

// String renders the 104-symbol ternary string with '.' separators between
// the five fields.
func (t Ternary) String() string {
	var b strings.Builder
	b.Grow(packet.W + 5)
	if t.Invalid {
		b.WriteByte('!')
	}
	for i := 0; i < packet.W; i++ {
		switch i {
		case packet.DIPOff, packet.SPOff, packet.DPOff, packet.ProtoOff:
			b.WriteByte('.')
		}
		b.WriteByte(t.Bit(i))
	}
	return b.String()
}

// ParseTernary parses a ternary word from the String format (separators
// optional).
func ParseTernary(s string) (Ternary, error) {
	var t Ternary
	i := 0
	for _, c := range []byte(s) {
		switch c {
		case '.', ' ', '_':
			continue
		case '0', '1', '*':
			if i >= packet.W {
				return Ternary{}, fmt.Errorf("ruleset: ternary string longer than %d bits", packet.W)
			}
			if c != '*' {
				t.Mask[i>>3] |= 1 << (7 - uint(i&7))
				if c == '1' {
					t.Value[i>>3] |= 1 << (7 - uint(i&7))
				}
			}
			i++
		default:
			return Ternary{}, fmt.Errorf("ruleset: invalid ternary symbol %q", c)
		}
	}
	if i != packet.W {
		return Ternary{}, fmt.Errorf("ruleset: ternary string has %d bits, want %d", i, packet.W)
	}
	return t, nil
}

// ternaryFromPrefixes assembles a full ternary word from per-field
// prefix/mask forms, a field at a time through the packed-key layout's one
// writer (packet.Header.Key): the care masks pack like a header, and so do
// the values with their don't-care bits cleared.
func ternaryFromPrefixes(sip, dip Prefix, sp, dp Prefix, proto Protocol) Ternary {
	mask := packet.Header{SIP: sip.Mask(), DIP: dip.Mask(), SP: uint16(sp.Mask()), DP: uint16(dp.Mask()), Proto: proto.Mask}
	value := packet.Header{
		SIP: sip.Value & mask.SIP, DIP: dip.Value & mask.DIP,
		SP: uint16(sp.Value) & mask.SP, DP: uint16(dp.Value) & mask.DP,
		Proto: proto.Value & mask.Proto,
	}
	return Ternary{Value: value.Key(), Mask: mask.Key()}
}
