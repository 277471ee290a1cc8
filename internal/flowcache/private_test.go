package flowcache

import (
	"testing"

	"pktclass/internal/packet"
)

// A retired-generation entry is counted as a stale drop when it is
// overwritten, not each time an insert scans past it: here entry a stays
// in its slot throughout, and only b's own entry is refreshed across the
// generation change.
func TestStaleDropCountedOnlyWhenOverwritten(t *testing.T) {
	p := NewPrivate(bucketWays) // one bucket
	a := packet.Header{SIP: 1, DIP: 9, SP: 9, DP: 9, Proto: 9}.Key()
	b := packet.Header{SIP: 2, DIP: 9, SP: 9, DP: 9, Proto: 9}.Key()
	p.Insert(a, 1, 10)
	p.Insert(b, 1, 20)
	p.Insert(b, 2, 21)
	p.Insert(b, 2, 22)
	if got := p.Stats().StaleDrops; got != 1 {
		t.Fatalf("stale drops = %d, want 1 (only b's retired entry was overwritten)", got)
	}
	// a's retired entry is reclaimed, and counted, by the next new key.
	c := packet.Header{SIP: 3, DIP: 9, SP: 9, DP: 9, Proto: 9}.Key()
	p.Insert(c, 2, 30)
	if got := p.Stats().StaleDrops; got != 2 {
		t.Fatalf("stale drops after reclaiming a = %d, want 2", got)
	}
	if r, ok := p.Lookup(b, 2); !ok || r != 22 {
		t.Fatalf("b under generation 2: got (%d,%v), want (22,true)", r, ok)
	}
}

// BenchmarkPrivateBatch is the CI allocation gate for the per-worker
// cache probe path: one op = one mixed hit/miss batch through
// ClassifyBatchInto. Steady state must not allocate.
func BenchmarkPrivateBatch(b *testing.B) {
	p := NewPrivate(4096)
	trace := make([]packet.Header, 512)
	for i := range trace {
		f := uint32(i % 192)
		trace[i] = packet.Header{SIP: f * 7, DIP: f * 11, SP: uint16(f), DP: 53, Proto: 17}
	}
	out := make([]int, len(trace))
	missFn := func(hdrs []packet.Header, o []int) {
		for i := range hdrs {
			o[i] = int(hdrs[i].DIP) & 0x3f
		}
	}
	p.ClassifyBatchInto(1, trace, out, missFn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ClassifyBatchInto(1, trace, out, missFn)
	}
}

// Hash must be the packet steering hash, byte for byte: steering and cache
// addressing agree on the flow identity.
func TestHashIsPacketKeyHash(t *testing.T) {
	for i := 0; i < 1000; i++ {
		k := packet.Header{SIP: uint32(i) * 2654435761, DIP: uint32(i) * 40503, SP: uint16(i), DP: uint16(i * 3), Proto: uint8(i)}.Key()
		if Hash(k) != k.Hash() {
			t.Fatalf("flowcache.Hash diverges from packet.Key.Hash on %v", k)
		}
	}
}
