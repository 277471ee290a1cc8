package flowcache

import (
	"math"
	"runtime"
	"testing"
	"unsafe"

	"pktclass/internal/packet"
)

// A bucket is 144 bytes: eight 16-byte slots (two tuple words, the result
// in the low bits of the second) under one 16-byte header — 18 bytes an
// entry.
func TestBucketIs144Bytes(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != 16 {
		t.Fatalf("slot is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(bucket{}); got != 144 {
		t.Fatalf("bucket is %d bytes, want 144", got)
	}
}

// NewPrivate allocates 18 bytes per entry, measured as the TotalAlloc delta
// of one construction — the way the serving benchmark reports
// flowcache.bytes_per_entry. The Private header itself rounds away.
func TestPrivateAllocates18BytesPerEntry(t *testing.T) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	p := NewPrivate(1 << 16)
	runtime.ReadMemStats(&m1)
	n := p.Entries()
	runtime.KeepAlive(p)
	if n != 1<<16 {
		t.Fatalf("capacity %d, want %d", n, 1<<16)
	}
	if per := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n); math.Abs(per-18) > 0.01 {
		t.Fatalf("NewPrivate(1<<16) allocates %.4f B per entry, want 18", per)
	}
}

// Stale drops are the valid entries a bucket empties when an insert under
// a newer generation retires it — counted once, at the retirement, not
// per lookup that misses on the old generation and not again when the new
// generation refreshes its own entries.
func TestStaleDropCountedOnlyWhenOverwritten(t *testing.T) {
	p := NewPrivate(bucketWays) // one bucket
	a := packet.Header{SIP: 1, DIP: 9, SP: 9, DP: 9, Proto: 9}.Key()
	b := packet.Header{SIP: 2, DIP: 9, SP: 9, DP: 9, Proto: 9}.Key()
	c := packet.Header{SIP: 3, DIP: 9, SP: 9, DP: 9, Proto: 9}.Key()
	p.Insert(a, 1, 10)
	p.Insert(b, 1, 20)
	if _, ok := p.Lookup(a, 2); ok {
		t.Fatal("generation 2 hit generation 1's entry")
	}
	if got := p.Stats().StaleDrops; got != 0 {
		t.Fatalf("stale drops after a lookup = %d, want 0: only a retirement counts", got)
	}
	p.Insert(b, 2, 21)
	if got := p.Stats().StaleDrops; got != 2 {
		t.Fatalf("stale drops after the retiring insert = %d, want 2 (a and b emptied)", got)
	}
	p.Insert(b, 2, 22)
	p.Insert(c, 2, 30)
	if got := p.Stats().StaleDrops; got != 2 {
		t.Fatalf("stale drops after a refresh and a new key = %d, want still 2", got)
	}
	if _, ok := p.Lookup(a, 2); ok {
		t.Fatal("a survived its bucket's retirement")
	}
	if r, ok := p.Lookup(b, 2); !ok || r != 22 {
		t.Fatalf("b under generation 2: got (%d,%v), want (22,true)", r, ok)
	}
	if got := p.Stats().Evictions; got != 0 {
		t.Fatalf("evictions = %d, want 0", got)
	}
}

// BenchmarkPrivateBatch is the CI allocation gate for the per-worker
// cache probe path: one op = one mixed hit/miss batch through
// ClassifyBatchPrehashedInto. Steady state must not allocate.
func BenchmarkPrivateBatch(b *testing.B) {
	p := NewPrivate(4096)
	trace := make([]packet.Header, 512)
	hashes := make([]uint64, len(trace))
	for i := range trace {
		f := uint32(i % 192)
		trace[i] = packet.Header{SIP: f * 7, DIP: f * 11, SP: uint16(f), DP: 53, Proto: 17}
		hashes[i] = trace[i].Hash()
	}
	out := make([]int, len(trace))
	missFn := func(hdrs []packet.Header, o []int) {
		for i := range hdrs {
			o[i] = int(hdrs[i].DIP) & 0x3f
		}
	}
	p.ClassifyBatchPrehashedInto(1, trace, hashes, out, missFn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ClassifyBatchPrehashedInto(1, trace, hashes, out, missFn)
	}
}

// Hash must be the packet steering hash, bit for bit: the header's hash,
// its packed key's hash and flowcache.Hash agree on random headers and on
// every field extreme, and are pinned to the values the byte-level key
// hash gave, which worker steering and bucket placement were built on.
func TestHashIsPacketKeyHash(t *testing.T) {
	pinned := []struct {
		h    packet.Header
		want uint64
	}{
		{packet.Header{}, 0},
		{packet.Header{Proto: 1}, 0x5692161d100b05e5},
		{packet.Header{SIP: 0xc0a80101, DIP: 0x0a000001, SP: 12345, DP: 80, Proto: 6}, 0x29cf677cd84578b6},
		{packet.Header{SIP: ^uint32(0), DIP: ^uint32(0), SP: 65535, DP: 65535, Proto: 255}, 0x4fa8e9bd8fd663a7},
	}
	for _, p := range pinned {
		if got := p.h.Hash(); got != p.want {
			t.Fatalf("%v: hash %#x, want %#x", p.h, got, p.want)
		}
	}
	hdrs := testHeaders(1000, 11)
	for _, proto := range []uint8{0, 255} {
		for _, port := range []uint16{0, 65535} {
			hdrs = append(hdrs,
				packet.Header{Proto: proto, SP: port},
				packet.Header{Proto: proto, DP: port},
				packet.Header{SIP: ^uint32(0), DIP: ^uint32(0), SP: port, DP: port, Proto: proto})
		}
	}
	for _, h := range hdrs {
		k := h.Key()
		if hh, kh, fh := h.Hash(), k.Hash(), Hash(k); hh != kh || kh != fh {
			t.Fatalf("%v: Header.Hash %#x, Key.Hash %#x, flowcache.Hash %#x", h, hh, kh, fh)
		}
	}
}

// The cache compares all 104 tuple bits. In a one-bucket cache every flow
// shares the bucket whatever its hash, so for each bit a header differing
// from a cached one in that bit alone must miss, be stored beside it, and
// leave the cached one hitting with its own result — through the
// prehashed batch path, Cache's batch path, and Lookup on both. Each bit
// runs under its own generation, so the previous bits' entries are stale
// and the two live entries are never CLOCK victims.
func TestExactMatchOverAll104Bits(t *testing.T) {
	p := NewPrivate(bucketWays)
	c := New(Config{Entries: bucketWays})
	var hashes [2]uint64
	paths := []struct {
		name   string
		batch  func(gen uint64, hdrs []packet.Header, out []int, miss func([]packet.Header, []int))
		lookup func(packet.Key, uint64) (int32, bool)
	}{
		{"PrivatePrehashed", func(gen uint64, hdrs []packet.Header, out []int, miss func([]packet.Header, []int)) {
			for i, h := range hdrs {
				hashes[i] = h.Hash()
			}
			p.ClassifyBatchPrehashedInto(gen, hdrs, hashes[:len(hdrs)], out, miss)
		}, p.Lookup},
		{"Cache", c.ClassifyBatchInto, c.Lookup},
	}
	orig := packet.Header{SIP: 0xc0a80101, DIP: 0x0a000001, SP: 12345, DP: 80, Proto: 6}
	const origResult = 7
	for _, pt := range paths {
		t.Run(pt.name, func(t *testing.T) {
			var missed []packet.Header
			flipResult := 0
			miss := func(hdrs []packet.Header, out []int) {
				missed = append(missed, hdrs...)
				for i, h := range hdrs {
					out[i] = flipResult
					if h == orig {
						out[i] = origResult
					}
				}
			}
			out := make([]int, 2)
			for bit := 0; bit < packet.W; bit++ {
				gen := uint64(1 + bit)
				pt.batch(gen, []packet.Header{orig}, out[:1], miss)
				k := orig.Key()
				k[bit>>3] ^= 1 << (7 - bit&7)
				flipped := packet.HeaderFromKey(k)
				flipResult = 1000 + bit
				if r, ok := pt.lookup(k, gen); ok {
					t.Fatalf("bit %d: Lookup of the flipped header hit (%d)", bit, r)
				}
				if r, ok := pt.lookup(orig.Key(), gen); !ok || r != origResult {
					t.Fatalf("bit %d: Lookup of the cached header = (%d,%v), want (%d,true)", bit, r, ok, origResult)
				}
				missed = missed[:0]
				pt.batch(gen, []packet.Header{orig, flipped}, out, miss)
				if len(missed) != 1 || missed[0] != flipped || out[0] != origResult || out[1] != flipResult {
					t.Fatalf("bit %d: batch missed %v, out %v; want only the flipped header missed, out [%d %d]",
						bit, missed, out, origResult, flipResult)
				}
				missed = missed[:0]
				pt.batch(gen, []packet.Header{flipped, orig}, out, miss)
				if len(missed) != 0 || out[0] != flipResult || out[1] != origResult {
					t.Fatalf("bit %d: second batch missed %v, out %v; want no misses, out [%d %d]",
						bit, missed, out, flipResult, origResult)
				}
			}
		})
	}
}
