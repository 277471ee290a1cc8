// Package packet defines the 5-tuple packet header, its canonical 104-bit
// packed representation, and trace generation.
//
// The bit layout is fixed for the whole system (engines, ternary rules,
// stride addressing):
//
//	bits   0.. 31  Source IP        (bit 0 = IP MSB)
//	bits  32.. 63  Destination IP   (MSB first)
//	bits  64.. 79  Source port      (MSB first)
//	bits  80.. 95  Destination port (MSB first)
//	bits  96..103  Protocol         (MSB first)
//
// MSB-first packing within each field makes a length-l prefix occupy the l
// leading bits of the field, so prefix masks are contiguous — the same
// convention used by the paper's ternary TCAM encoding and by the FSBV /
// StrideBV sub-field decomposition.
package packet

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// Field widths and offsets of the 5-tuple in the packed key.
const (
	SIPBits   = 32
	DIPBits   = 32
	SPBits    = 16
	DPBits    = 16
	ProtoBits = 8

	SIPOff   = 0
	DIPOff   = SIPOff + SIPBits     // 32
	SPOff    = DIPOff + DIPBits     // 64
	DPOff    = SPOff + SPBits       // 80
	ProtoOff = DPOff + DPBits       // 96
	W        = ProtoOff + ProtoBits // 104: total tuple width in bits
)

// KeyBytes is the size of the packed key in bytes.
const KeyBytes = W / 8 // 13

// MinPacketBits is the minimum Ethernet-layer packet size (40 B) in bits,
// the per-lookup data volume the paper's throughput figures assume.
const MinPacketBits = 320

// Header is a classification 5-tuple.
type Header struct {
	SIP   uint32
	DIP   uint32
	SP    uint16
	DP    uint16
	Proto uint8
}

// Key is the canonical packed 104-bit representation of a Header.
// Byte i holds bits [8i, 8i+8) with the lowest bit index in the MSB.
type Key [KeyBytes]byte

// Key packs the header into its canonical 104-bit key.
//
//pclass:hotpath
func (h Header) Key() Key {
	var k Key
	k[0] = byte(h.SIP >> 24)
	k[1] = byte(h.SIP >> 16)
	k[2] = byte(h.SIP >> 8)
	k[3] = byte(h.SIP)
	k[4] = byte(h.DIP >> 24)
	k[5] = byte(h.DIP >> 16)
	k[6] = byte(h.DIP >> 8)
	k[7] = byte(h.DIP)
	k[8] = byte(h.SP >> 8)
	k[9] = byte(h.SP)
	k[10] = byte(h.DP >> 8)
	k[11] = byte(h.DP)
	k[12] = h.Proto
	return k
}

// HeaderFromKey unpacks a key back into a Header.
func HeaderFromKey(k Key) Header { return HeaderFromWords(k.Words()) }

// Bit returns bit i of the key (0 or 1). Bit 0 is the SIP MSB.
func (k Key) Bit(i int) int {
	if i < 0 || i >= W {
		panic(fmt.Sprintf("packet: bit index %d out of range [0,%d)", i, W))
	}
	return int(k[i>>3]>>(7-uint(i&7))) & 1
}

// Stride extracts the k-bit stride value at bit offset off, MSB first.
// Strides that run past bit W-1 are zero-padded on the right, matching a
// hardware pipeline whose final stage wires unused address bits to 0.
func (k Key) Stride(off, kbits int) int {
	v := 0
	for b := 0; b < kbits; b++ {
		v <<= 1
		if i := off + b; i < W {
			v |= k.Bit(i)
		}
	}
	return v
}

// Words returns the header's tuple bits as a left-aligned 128-bit value
// hi:lo — bit 0 (the SIP MSB) is hi's MSB, bit 64 is lo's MSB, and bits
// W..127 (lo's low 24 bits) are zero, matching the zero padding Stride
// applies past the final bit. The stride extractor and the TCAM row compare
// both work on this form; neither packs a Key first.
//
//pclass:hotpath
func (h Header) Words() (hi, lo uint64) {
	return uint64(h.SIP)<<32 | uint64(h.DIP),
		uint64(h.SP)<<48 | uint64(h.DP)<<32 | uint64(h.Proto)<<24
}

// HeaderFromWords is the inverse of Header.Words; lo's padding bits are
// ignored.
func HeaderFromWords(hi, lo uint64) Header {
	return Header{SIP: uint32(hi >> 32), DIP: uint32(hi), SP: uint16(lo >> 48), DP: uint16(lo >> 32), Proto: uint8(lo >> 24)}
}

// Words is Header.Words for an already packed key: two 8-byte loads, the
// second over bytes 5..12 and shifted so bytes 8..12 lead. Small enough to
// inline, so Key.Hash does not copy the key into a call.
//
//pclass:hotpath
func (k Key) Words() (hi, lo uint64) {
	return binary.BigEndian.Uint64(k[:8]), binary.BigEndian.Uint64(k[5:]) << 24
}

// StridesInto fills dst[s] with the k-bit stride value at stage s for every
// stage of a kbits decomposition (dst must have NumStrides(kbits) entries).
// It is the batched-datapath form of Stride: the 104 key bits are loaded
// into two machine words once and each stage address is a pair of shifts,
// instead of ceil(W/k) independent bit-by-bit extractions.
//
//pclass:hotpath
func (k Key) StridesInto(kbits int, dst []int) {
	hi, lo := k.Words()
	stridesInto(hi, lo, kbits, dst)
}

// StridesInto is Key.StridesInto without packing the 13-byte key first: the
// two words come straight from the header fields. The engines' lookup path
// calls this form.
//
//pclass:hotpath
func (h Header) StridesInto(kbits int, dst []int) {
	hi, lo := h.Words()
	stridesInto(hi, lo, kbits, dst)
}

// stridesInto is the stride extractor both StridesInto forms share: stage s
// is bits [s·kbits, (s+1)·kbits) of the 128-bit value hi:lo. The stages
// are walked by their end bit in four runs — those inside hi, the one (if
// any) straddling the word boundary, those inside lo, and the one (if any)
// a wide final stride pushes past bit 127, whose padding zeros shift in
// from the right — so each stage is one shift of one word with no per-stage
// case analysis, and nothing divides: the stage count ceil(W/kbits) falls
// out of counting bits (a hardware divide costs more than every shift here).
// Needs kbits <= 64, which keeps a straddling stage's end below 128.
//
//pclass:hotpath
func stridesInto(hi, lo uint64, kbits int, dst []int) {
	if kbits < 1 || len(dst)*kbits < W {
		panic(fmt.Sprintf("packet: stride width %d with a %d-entry buffer", kbits, len(dst)))
	}
	mask := uint64(1)<<uint(kbits) - 1
	s, end := 0, kbits
	for ; end <= 64; s, end = s+1, end+kbits {
		dst[s] = int(hi >> uint((64-end)&63) & mask)
	}
	if end-kbits < 64 {
		dst[s] = int((hi<<uint((end-64)&63) | lo>>uint((128-end)&63)) & mask)
		s, end = s+1, end+kbits
	}
	for ; end <= 128 && end-kbits < W; s, end = s+1, end+kbits {
		dst[s] = int(lo >> uint((128-end)&63) & mask)
	}
	if end-kbits < W {
		dst[s] = int(lo << uint((end-128)&63) & mask)
	}
}

// String renders the header in the ruleset text format's header form.
func (h Header) String() string {
	return fmt.Sprintf("%s %s %d %d %d",
		ipString(h.SIP), ipString(h.DIP), h.SP, h.DP, h.Proto)
}

func ipString(v uint32) string {
	a := netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
	return a.String()
}

// NumStrides returns the number of pipeline stages a k-bit stride
// decomposition of the full W-bit tuple needs: ceil(W/k).
func NumStrides(kbits int) int {
	if kbits <= 0 {
		panic(fmt.Sprintf("packet: invalid stride %d", kbits))
	}
	return (W + kbits - 1) / kbits
}
