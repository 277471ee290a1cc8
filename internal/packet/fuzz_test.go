package packet

import "testing"

// Fuzz targets for the packed-key invariants every engine builds on: the
// Header <-> Key round trip must be lossless in both directions, the
// word-at-a-time StridesInto datapath — from a packed Key or straight from
// the Header — must agree with the bit-by-bit Stride reference at every
// stage for every stride width, and the flow hash and identity taken from
// the Header's two words must be those of its packed Key. Run ad hoc with
//
//	go test ./internal/packet -fuzz FuzzKeyRoundTrip
//
// CI runs each target for a short -fuzztime smoke on every push.

func FuzzKeyRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint16(0), uint16(0), uint8(0))
	f.Add(^uint32(0), ^uint32(0), ^uint16(0), ^uint16(0), ^uint8(0))
	f.Add(uint32(0xc0a80101), uint32(0x0a000001), uint16(12345), uint16(80), uint8(6))
	f.Fuzz(func(t *testing.T, sip, dip uint32, sp, dp uint16, proto uint8) {
		h := Header{SIP: sip, DIP: dip, SP: sp, DP: dp, Proto: proto}
		k := h.Key()
		if got := HeaderFromKey(k); got != h {
			t.Fatalf("round trip: %+v -> %v -> %+v", h, k, got)
		}
		if k2 := HeaderFromKey(k).Key(); k2 != k {
			t.Fatalf("key not canonical: %v -> %v", k, k2)
		}
		if got := HeaderFromWords(h.Words()); got != h {
			t.Fatalf("word round trip: %+v -> %+v", h, got)
		}
		checkWords(t, h, k)
		// Bit must agree with the documented field layout: walking the 104
		// bits MSB-first per field reassembles every field.
		var sipR uint32
		for i := SIPOff; i < SIPOff+SIPBits; i++ {
			sipR = sipR<<1 | uint32(k.Bit(i))
		}
		var dipR uint32
		for i := DIPOff; i < DIPOff+DIPBits; i++ {
			dipR = dipR<<1 | uint32(k.Bit(i))
		}
		var spR, dpR uint16
		for i := SPOff; i < SPOff+SPBits; i++ {
			spR = spR<<1 | uint16(k.Bit(i))
		}
		for i := DPOff; i < DPOff+DPBits; i++ {
			dpR = dpR<<1 | uint16(k.Bit(i))
		}
		var protoR uint8
		for i := ProtoOff; i < ProtoOff+ProtoBits; i++ {
			protoR = protoR<<1 | uint8(k.Bit(i))
		}
		if sipR != sip || dipR != dip || spR != sp || dpR != dp || protoR != proto {
			t.Fatalf("bit layout: reassembled (%x %x %x %x %x), want (%x %x %x %x %x)",
				sipR, dipR, spR, dpR, protoR, sip, dip, sp, dp, proto)
		}
	})
}

// checkWords asserts the two-word form: Header.Words and Key.Words agree,
// bit i of the key is bit 63-i of hi (i < 64) or bit 127-i of lo, and the
// padding bits W..127 are zero.
func checkWords(t *testing.T, h Header, k Key) {
	t.Helper()
	hi, lo := h.Words()
	if khi, klo := k.Words(); khi != hi || klo != lo {
		t.Fatalf("Header.Words %#x:%#x != Key.Words %#x:%#x (key %v)", hi, lo, khi, klo, k)
	}
	for i := 0; i < 128; i++ {
		w := hi
		if i >= 64 {
			w = lo
		}
		want := 0
		if i < W {
			want = k.Bit(i)
		}
		if got := int(w >> uint(63-i&63) & 1); got != want {
			t.Fatalf("Words bit %d = %d, want %d (key %v)", i, got, want, k)
		}
	}
}

func FuzzStridesInto(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint16(0), uint16(0), uint8(0), 4)
	f.Add(^uint32(0), ^uint32(0), ^uint16(0), ^uint16(0), ^uint8(0), 1)
	f.Add(uint32(0xdeadbeef), uint32(0x01020304), uint16(0x5a5a), uint16(0xa5a5), uint8(17), 3)
	f.Add(uint32(1), uint32(2), uint16(3), uint16(4), uint8(5), 64)
	f.Fuzz(func(t *testing.T, sip, dip uint32, sp, dp uint16, proto uint8, kbits int) {
		// StridesInto supports the widths a two-word datapath can shift:
		// clamp the fuzzed stride into [1, 64] rather than rejecting, so
		// the corpus explores widths instead of the guard.
		if kbits < 1 {
			kbits = 1
		}
		if kbits > 64 {
			kbits = 64
		}
		h := Header{SIP: sip, DIP: dip, SP: sp, DP: dp, Proto: proto}
		k := h.Key()
		checkWords(t, h, k)
		// The fuzzed width, plus every width an engine accepts: the Header
		// form (no key packing), the Key form and the per-stage bit-by-bit
		// Stride must agree on all of them for every input.
		for _, kbits := range []int{kbits, 1, 2, 3, 4, 5, 6, 7, 8} {
			stages := NumStrides(kbits)
			fromKey, fromHeader := make([]int, stages), make([]int, stages)
			k.StridesInto(kbits, fromKey)
			h.StridesInto(kbits, fromHeader)
			for s := 0; s < stages; s++ {
				want := k.Stride(s*kbits, kbits)
				if fromKey[s] != want || fromHeader[s] != want {
					t.Fatalf("k=%d stage %d: Key.StridesInto %#x, Header.StridesInto %#x, bit-by-bit Stride %#x (key %v)",
						kbits, s, fromKey[s], fromHeader[s], want, k)
				}
			}
		}
	})
}

// keyHashRef is the byte-level flow hash every steering decision and cache
// bucket was placed by before the hash moved onto Header.Words: the key's
// bytes 0..7 as the high word, bytes 8..12 as a right-aligned 40-bit low
// word. WordsHash must reproduce it bit for bit.
func keyHashRef(k Key) uint64 {
	hi := uint64(k[0])<<56 | uint64(k[1])<<48 | uint64(k[2])<<40 | uint64(k[3])<<32 |
		uint64(k[4])<<24 | uint64(k[5])<<16 | uint64(k[6])<<8 | uint64(k[7])
	lo := uint64(k[8])<<32 | uint64(k[9])<<24 | uint64(k[10])<<16 | uint64(k[11])<<8 |
		uint64(k[12])
	h := hi*0x9e3779b97f4a7c15 ^ lo
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// FuzzHeaderHash checks the flow identity the serving path keys on: a
// header's hash is its packed key's hash and the byte-level reference, and
// two headers have equal words exactly when they have equal keys.
func FuzzHeaderHash(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint16(0), uint16(0), uint8(0), uint32(0), uint32(0), uint16(0), uint16(0), uint8(0))
	f.Add(^uint32(0), ^uint32(0), ^uint16(0), ^uint16(0), ^uint8(0), ^uint32(0), ^uint32(0), ^uint16(0), ^uint16(0), ^uint8(0))
	f.Add(uint32(0xc0a80101), uint32(0x0a000001), uint16(12345), uint16(80), uint8(6),
		uint32(0xc0a80101), uint32(0x0a000001), uint16(12345), uint16(80), uint8(7))
	f.Add(uint32(1), uint32(2), uint16(3), uint16(4), uint8(255), uint32(1), uint32(2), uint16(3), uint16(0x8004), uint8(255))
	f.Fuzz(func(t *testing.T, sip1, dip1 uint32, sp1, dp1 uint16, proto1 uint8, sip2, dip2 uint32, sp2, dp2 uint16, proto2 uint8) {
		h1 := Header{SIP: sip1, DIP: dip1, SP: sp1, DP: dp1, Proto: proto1}
		h2 := Header{SIP: sip2, DIP: dip2, SP: sp2, DP: dp2, Proto: proto2}
		for _, h := range []Header{h1, h2} {
			k := h.Key()
			if got, key, ref := h.Hash(), k.Hash(), keyHashRef(k); got != key || key != ref {
				t.Fatalf("%v: Header.Hash %#x, Key.Hash %#x, byte-level reference %#x", h, got, key, ref)
			}
		}
		hi1, lo1 := h1.Words()
		hi2, lo2 := h2.Words()
		if words, keys := hi1 == hi2 && lo1 == lo2, h1.Key() == h2.Key(); words != keys {
			t.Fatalf("%v vs %v: equal words %v, equal keys %v", h1, h2, words, keys)
		}
	})
}
