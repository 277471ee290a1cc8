// Package ruleset models 5-tuple packet classification rules: prefix-matched
// IP fields, arbitrary-range port fields, exact-or-wildcard protocol, rule
// priority, ternary (value/mask) conversion with range-to-prefix expansion,
// a text format, and seeded synthetic generators.
//
// The package is deliberately feature-free: nothing in the data structures
// or the generators assumes rulesets have exploitable structure, matching
// the paper's premise that TCAM and StrideBV cost depends only on the rule
// count N and tuple width W.
package ruleset

import (
	"fmt"
	"strconv"
	"strings"

	"pktclass/internal/packet"
)

// Prefix is a w-bit prefix match: the Len leading bits of Value must equal
// the corresponding header bits. Len == 0 matches everything.
type Prefix struct {
	Value uint32 // left-aligned within Bits (i.e. ordinary integer value)
	Bits  int    // field width in bits (32 for IPs)
	Len   int    // prefix length, 0..Bits
}

// NewPrefix returns a validated prefix, canonicalizing bits below the prefix
// length to zero.
func NewPrefix(value uint32, bits, length int) (Prefix, error) {
	if bits <= 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("ruleset: prefix field width %d out of range", bits)
	}
	if length < 0 || length > bits {
		return Prefix{}, fmt.Errorf("ruleset: prefix length %d out of range [0,%d]", length, bits)
	}
	return Prefix{Value: value & prefixMask(bits, length), Bits: bits, Len: length}, nil
}

// prefixMask returns the mask with the length leading bits (of a bits-wide
// field) set.
func prefixMask(bits, length int) uint32 {
	if length == 0 {
		return 0
	}
	return (^uint32(0) << uint(bits-length)) & widthMask(bits)
}

func widthMask(bits int) uint32 {
	if bits == 32 {
		return ^uint32(0)
	}
	return (1 << uint(bits)) - 1
}

// Matches reports whether v matches the prefix.
func (p Prefix) Matches(v uint32) bool {
	return (v^p.Value)&prefixMask(p.Bits, p.Len) == 0
}

// Mask returns the care mask of the prefix within its field width.
func (p Prefix) Mask() uint32 { return prefixMask(p.Bits, p.Len) }

// Range returns the inclusive value interval the prefix covers.
func (p Prefix) Range() (lo, hi uint32) {
	m := prefixMask(p.Bits, p.Len)
	lo = p.Value & m
	hi = lo | (^m & widthMask(p.Bits))
	return lo, hi
}

// Wildcard reports whether the prefix matches all values.
func (p Prefix) Wildcard() bool { return p.Len == 0 }

// String renders "v/len" with v in dotted quad for 32-bit fields.
func (p Prefix) String() string {
	if p.Bits == 32 {
		return fmt.Sprintf("%d.%d.%d.%d/%d",
			byte(p.Value>>24), byte(p.Value>>16), byte(p.Value>>8), byte(p.Value), p.Len)
	}
	return fmt.Sprintf("%d/%d", p.Value, p.Len)
}

// ParseIPv4Prefix parses "a.b.c.d/len" (or "a.b.c.d" as /32).
func ParseIPv4Prefix(s string) (Prefix, error) {
	addr := s
	length := 32
	if i := strings.IndexByte(s, '/'); i >= 0 {
		addr = s[:i]
		var err error
		length, err = strconv.Atoi(s[i+1:])
		if err != nil {
			return Prefix{}, fmt.Errorf("ruleset: bad prefix length in %q: %v", s, err)
		}
	}
	if strings.Count(addr, ".") != 3 {
		return Prefix{}, fmt.Errorf("ruleset: bad IPv4 address %q", addr)
	}
	var v uint32
	for rest, i := addr, 0; i < 4; i++ {
		p := rest
		if dot := strings.IndexByte(rest, '.'); dot >= 0 {
			p, rest = rest[:dot], rest[dot+1:]
		}
		o, ok := parseDecimal(p, 0xFF)
		if !ok {
			return Prefix{}, fmt.Errorf("ruleset: bad IPv4 octet %q in %q", p, addr)
		}
		v = v<<8 | o
	}
	return NewPrefix(v, 32, length)
}

// PortRange is an inclusive [Lo, Hi] interval over 16-bit port numbers.
// Lo == 0 && Hi == 65535 is the wildcard; Lo == Hi is an exact match.
type PortRange struct {
	Lo, Hi uint16
}

// FullPortRange matches every port.
var FullPortRange = PortRange{Lo: 0, Hi: 0xFFFF}

// NewPortRange validates lo <= hi.
func NewPortRange(lo, hi uint16) (PortRange, error) {
	if lo > hi {
		return PortRange{}, fmt.Errorf("ruleset: inverted port range [%d,%d]", lo, hi)
	}
	return PortRange{Lo: lo, Hi: hi}, nil
}

// ExactPort is the single-port range [p, p].
func ExactPort(p uint16) PortRange { return PortRange{Lo: p, Hi: p} }

// Matches reports whether p falls inside the range.
func (r PortRange) Matches(p uint16) bool { return p >= r.Lo && p <= r.Hi }

// Wildcard reports whether the range covers all 2^16 ports.
func (r PortRange) Wildcard() bool { return r.Lo == 0 && r.Hi == 0xFFFF }

// Exact reports whether the range is a single port.
func (r PortRange) Exact() bool { return r.Lo == r.Hi }

// IsPrefix reports whether the range is exactly expressible as one prefix,
// and returns that prefix.
func (r PortRange) IsPrefix() (Prefix, bool) {
	ps := r.Prefixes()
	if len(ps) == 1 {
		return ps[0], true
	}
	return Prefix{}, false
}

// String renders "lo : hi", the ClassBench port-range form.
func (r PortRange) String() string { return fmt.Sprintf("%d : %d", r.Lo, r.Hi) }

// Protocol matches the 8-bit protocol field under a mask, covering the three
// forms found in firewall rulesets: exact (mask 0xFF), wildcard (mask 0x00),
// and the rare partially-masked form ClassBench emits.
type Protocol struct {
	Value uint8
	Mask  uint8
}

// AnyProtocol matches every protocol value.
var AnyProtocol = Protocol{Value: 0, Mask: 0}

// ExactProtocol matches exactly v.
func ExactProtocol(v uint8) Protocol { return Protocol{Value: v, Mask: 0xFF} }

// Matches reports whether v matches.
func (p Protocol) Matches(v uint8) bool { return (v^p.Value)&p.Mask == 0 }

// Wildcard reports whether all protocols match.
func (p Protocol) Wildcard() bool { return p.Mask == 0 }

// Well-known protocol numbers used by the generators and parser.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)

// String renders "0xVV/0xMM", the ClassBench protocol form.
func (p Protocol) String() string { return fmt.Sprintf("0x%02X/0x%02X", p.Value, p.Mask) }

// compile-time width sanity: the packed layout this package targets.
var _ = [1]struct{}{}[packet.W-104]
