// Package oftuple defines an OpenFlow-1.0-style 12-field match tuple and a
// classifier over it, built on the width-generic engines of internal/genbv.
// The paper's Section II-A singles OpenFlow out as the many-field cousin of
// 5-tuple classification; this package demonstrates that the two
// feature-independent engines extend to that regime unchanged — memory is
// still a closed form in (W, k, Ne) with W = 256 bits.
package oftuple

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"pktclass/internal/genbv"
)

// Field widths (bits), in match order. VLAN id is stored in 16 bits as
// OpenFlow does on the wire.
const (
	InPortBits  = 16
	EthSrcBits  = 48
	EthDstBits  = 48
	EthTypeBits = 16
	VlanBits    = 16
	IPSrcBits   = 32
	IPDstBits   = 32
	ProtoBits   = 8
	TosBits     = 8
	TpSrcBits   = 16
	TpDstBits   = 16

	// W is the total tuple width.
	W = InPortBits + EthSrcBits + EthDstBits + EthTypeBits + VlanBits +
		IPSrcBits + IPDstBits + ProtoBits + TosBits + TpSrcBits + TpDstBits // 256
	// KeyBytes is the packed size.
	KeyBytes = (W + 7) / 8
)

// Header is one OpenFlow match key.
type Header struct {
	InPort  uint16
	EthSrc  uint64 // low 48 bits
	EthDst  uint64 // low 48 bits
	EthType uint16
	Vlan    uint16
	IPSrc   uint32
	IPDst   uint32
	Proto   uint8
	Tos     uint8
	TpSrc   uint16
	TpDst   uint16
}

// Key packs the header MSB-first per field, fields in declaration order. It
// is an array, not a slice, so a lookup's key never reaches the heap.
func (h Header) Key() (k [KeyBytes]byte) {
	binary.BigEndian.PutUint16(k[0:], h.InPort)
	putUint48(k[2:], h.EthSrc)
	putUint48(k[8:], h.EthDst)
	binary.BigEndian.PutUint16(k[14:], h.EthType)
	binary.BigEndian.PutUint16(k[16:], h.Vlan)
	binary.BigEndian.PutUint32(k[18:], h.IPSrc)
	binary.BigEndian.PutUint32(k[22:], h.IPDst)
	k[26], k[27] = h.Proto, h.Tos
	binary.BigEndian.PutUint16(k[28:], h.TpSrc)
	binary.BigEndian.PutUint16(k[30:], h.TpDst)
	return k
}

// putUint48 stores the low 48 bits of v big-endian.
func putUint48(b []byte, v uint64) {
	binary.BigEndian.PutUint16(b, uint16(v>>32))
	binary.BigEndian.PutUint32(b[2:], uint32(v))
}

// FieldMatch is an exact-or-wildcard constraint on one field (OpenFlow 1.0
// semantics: per-field wildcard flags, plus prefix masks on the IP fields).
type FieldMatch struct {
	Value uint64
	// PrefixLen applies to IP fields: number of leading bits that must
	// match; the full width means exact. For non-IP fields use 0 (wild)
	// or the field width (exact).
	PrefixLen int
}

// Rule is one OpenFlow flow entry's match, field order as in Header.
type Rule struct {
	InPort, EthSrc, EthDst, EthType, Vlan FieldMatch
	IPSrc, IPDst                          FieldMatch
	Proto, Tos, TpSrc, TpDst              FieldMatch
	// Priority is implicit in table order, as in the 5-tuple engines.
}

// fieldSpec drives the packing of rules into ternary patterns.
var fieldSpec = []struct {
	bits int
	get  func(*Rule) *FieldMatch
}{
	{InPortBits, func(r *Rule) *FieldMatch { return &r.InPort }},
	{EthSrcBits, func(r *Rule) *FieldMatch { return &r.EthSrc }},
	{EthDstBits, func(r *Rule) *FieldMatch { return &r.EthDst }},
	{EthTypeBits, func(r *Rule) *FieldMatch { return &r.EthType }},
	{VlanBits, func(r *Rule) *FieldMatch { return &r.Vlan }},
	{IPSrcBits, func(r *Rule) *FieldMatch { return &r.IPSrc }},
	{IPDstBits, func(r *Rule) *FieldMatch { return &r.IPDst }},
	{ProtoBits, func(r *Rule) *FieldMatch { return &r.Proto }},
	{TosBits, func(r *Rule) *FieldMatch { return &r.Tos }},
	{TpSrcBits, func(r *Rule) *FieldMatch { return &r.TpSrc }},
	{TpDstBits, func(r *Rule) *FieldMatch { return &r.TpDst }},
}

// Ternary lowers the rule to a W-bit pattern.
func (r Rule) Ternary() (genbv.Ternary, error) {
	value := make([]byte, KeyBytes)
	mask := make([]byte, KeyBytes)
	off := 0
	rr := r
	for _, f := range fieldSpec {
		m := f.get(&rr)
		if m.PrefixLen < 0 || m.PrefixLen > f.bits {
			return genbv.Ternary{}, fmt.Errorf("oftuple: prefix length %d exceeds %d-bit field", m.PrefixLen, f.bits)
		}
		for b := 0; b < m.PrefixLen; b++ {
			i := off + b
			mask[i>>3] |= 1 << (7 - uint(i&7))
			if m.Value>>uint(f.bits-1-b)&1 == 1 {
				value[i>>3] |= 1 << (7 - uint(i&7))
			}
		}
		off += f.bits
	}
	return genbv.NewTernary(value, mask)
}

// Matches evaluates the rule against a header directly (the semantic
// reference the engines are tested against).
func (r Rule) Matches(h Header) bool {
	check := func(m FieldMatch, v uint64, bits int) bool {
		if m.PrefixLen == 0 {
			return true
		}
		shift := uint(bits - m.PrefixLen)
		return v>>shift == m.Value>>shift
	}
	return check(r.InPort, uint64(h.InPort), InPortBits) &&
		check(r.EthSrc, h.EthSrc, EthSrcBits) &&
		check(r.EthDst, h.EthDst, EthDstBits) &&
		check(r.EthType, uint64(h.EthType), EthTypeBits) &&
		check(r.Vlan, uint64(h.Vlan), VlanBits) &&
		check(r.IPSrc, uint64(h.IPSrc), IPSrcBits) &&
		check(r.IPDst, uint64(h.IPDst), IPDstBits) &&
		check(r.Proto, uint64(h.Proto), ProtoBits) &&
		check(r.Tos, uint64(h.Tos), TosBits) &&
		check(r.TpSrc, uint64(h.TpSrc), TpSrcBits) &&
		check(r.TpDst, uint64(h.TpDst), TpDstBits)
}

// Table is an ordered OpenFlow flow table with a StrideBV engine and a
// TCAM reference over the same entries.
type Table struct {
	Rules  []Rule
	engine *genbv.Engine
	tcam   *genbv.TCAM
}

// NewTable lowers the rules and builds both engines with stride k.
func NewTable(rules []Rule, k int) (*Table, error) {
	if len(rules) == 0 {
		return nil, fmt.Errorf("oftuple: empty table")
	}
	entries := make([]genbv.Ternary, len(rules))
	for i, r := range rules {
		t, err := r.Ternary()
		if err != nil {
			return nil, fmt.Errorf("rule %d: %w", i, err)
		}
		entries[i] = t
	}
	eng, err := genbv.New(entries, W, k)
	if err != nil {
		return nil, err
	}
	return &Table{Rules: rules, engine: eng, tcam: genbv.NewTCAM(entries, W)}, nil
}

// Classify returns the first matching rule index via StrideBV, or -1.
func (t *Table) Classify(h Header) int {
	key := h.Key()
	idx, err := t.engine.Classify(key[:])
	if err != nil {
		panic("oftuple: internal key width error: " + err.Error())
	}
	return idx
}

// ClassifyTCAM returns the TCAM engine's answer (used for cross-checks).
func (t *Table) ClassifyTCAM(h Header) int {
	key := h.Key()
	return t.tcam.Classify(key[:])
}

// MemoryBits returns (stridebv, tcam) storage for the table.
func (t *Table) MemoryBits() (strideBV, tcamBits int) {
	return t.engine.MemoryBits(), t.tcam.MemoryBits()
}

// Stages returns the StrideBV pipeline depth for this width.
func (t *Table) Stages() int { return t.engine.Stages() }

// GenerateRules draws a deterministic synthetic OpenFlow table: a mix of
// L2 forwarding entries (exact MACs), L3 routes (IP prefixes), ACL-ish
// 5-tuple entries, and a table-miss wildcard at the end.
func GenerateRules(n int, seed int64) []Rule {
	rng := rand.New(rand.NewSource(seed))
	exact := func(v uint64, bits int) FieldMatch { return FieldMatch{Value: v, PrefixLen: bits} }
	wild := FieldMatch{}
	out := make([]Rule, 0, n)
	for i := 0; i < n-1; i++ {
		var r Rule
		switch rng.Intn(3) {
		case 0: // L2: in-port + dst MAC
			r.InPort = exact(uint64(rng.Intn(48)), InPortBits)
			r.EthDst = exact(rng.Uint64()&(1<<48-1), EthDstBits)
		case 1: // L3: eth_type IPv4 + dst prefix
			r.EthType = exact(0x0800, EthTypeBits)
			r.IPDst = FieldMatch{Value: uint64(rng.Uint32()), PrefixLen: 8 + rng.Intn(25)}
		case 2: // ACL: 5-tuple-ish
			r.EthType = exact(0x0800, EthTypeBits)
			r.IPSrc = FieldMatch{Value: uint64(rng.Uint32()), PrefixLen: 16 + rng.Intn(17)}
			r.IPDst = FieldMatch{Value: uint64(rng.Uint32()), PrefixLen: 16 + rng.Intn(17)}
			r.Proto = exact(6, ProtoBits)
			r.TpDst = exact(uint64(rng.Intn(65536)), TpDstBits)
		}
		r.Tos = wild
		out = append(out, r)
	}
	out = append(out, Rule{}) // table-miss: all wildcards
	return out
}

// RandomHeader draws a uniform header.
func RandomHeader(rng *rand.Rand) Header {
	return Header{
		InPort:  uint16(rng.Intn(48)),
		EthSrc:  rng.Uint64() & (1<<48 - 1),
		EthDst:  rng.Uint64() & (1<<48 - 1),
		EthType: [2]uint16{0x0800, 0x0806}[rng.Intn(2)],
		Vlan:    uint16(rng.Intn(4096)),
		IPSrc:   rng.Uint32(),
		IPDst:   rng.Uint32(),
		Proto:   [3]uint8{6, 17, 1}[rng.Intn(3)],
		Tos:     uint8(rng.Intn(256)),
		TpSrc:   uint16(rng.Intn(65536)),
		TpDst:   uint16(rng.Intn(65536)),
	}
}

// HeaderInRule draws a header matching the rule (don't-care bits random).
func HeaderInRule(r Rule, rng *rand.Rand) Header {
	h := RandomHeader(rng)
	fill := func(m FieldMatch, cur uint64, bits int) uint64 {
		if m.PrefixLen == 0 {
			return cur
		}
		shift := uint(bits - m.PrefixLen)
		keep := (uint64(1) << shift) - 1
		return (m.Value &^ keep) | (cur & keep)
	}
	h.InPort = uint16(fill(r.InPort, uint64(h.InPort), InPortBits))
	h.EthSrc = fill(r.EthSrc, h.EthSrc, EthSrcBits)
	h.EthDst = fill(r.EthDst, h.EthDst, EthDstBits)
	h.EthType = uint16(fill(r.EthType, uint64(h.EthType), EthTypeBits))
	h.Vlan = uint16(fill(r.Vlan, uint64(h.Vlan), VlanBits))
	h.IPSrc = uint32(fill(r.IPSrc, uint64(h.IPSrc), IPSrcBits))
	h.IPDst = uint32(fill(r.IPDst, uint64(h.IPDst), IPDstBits))
	h.Proto = uint8(fill(r.Proto, uint64(h.Proto), ProtoBits))
	h.Tos = uint8(fill(r.Tos, uint64(h.Tos), TosBits))
	h.TpSrc = uint16(fill(r.TpSrc, uint64(h.TpSrc), TpSrcBits))
	h.TpDst = uint16(fill(r.TpDst, uint64(h.TpDst), TpDstBits))
	return h
}
