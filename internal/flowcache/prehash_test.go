package flowcache

import (
	"testing"

	"pktclass/internal/packet"
)

// The prehashed batch path is the same table with dispatch-computed
// hashes: its results must be identical to the locked Cache's, which
// hashes each header itself, hit-for-hit.
func TestPrivatePrehashedMatchesSelfHashing(t *testing.T) {
	classify := func(h packet.Header) int { return int(h.SIP^h.DIP) & 0xff }
	missFn := func(hdrs []packet.Header, out []int) {
		for i, h := range hdrs {
			out[i] = classify(h)
		}
	}
	trace := make([]packet.Header, 1000)
	for i := range trace {
		f := uint32(i % 64)
		trace[i] = packet.Header{SIP: f + 7, DIP: (f + 7) * 2654435761, SP: uint16(f), DP: 80, Proto: 6}
	}
	hashes := make([]uint64, len(trace))
	for i, h := range trace {
		hashes[i] = h.Hash()
	}

	plain := New(Config{Entries: 4096})
	pre := NewPrivate(4096)
	outPlain := make([]int, len(trace))
	outPre := make([]int, len(trace))
	for pass := 0; pass < 3; pass++ {
		plain.ClassifyBatchInto(1, trace, outPlain, missFn)
		pre.ClassifyBatchPrehashedInto(1, trace, hashes, outPre, missFn)
		for i := range trace {
			if outPlain[i] != outPre[i] {
				t.Fatalf("pass %d packet %d: self-hashed %d, prehashed %d", pass, i, outPlain[i], outPre[i])
			}
			if want := classify(trace[i]); outPre[i] != want {
				t.Fatalf("pass %d packet %d: got %d want %d", pass, i, outPre[i], want)
			}
		}
	}
	sp, se := plain.Stats(), pre.Stats()
	if sp.Hits != se.Hits || sp.Misses != se.Misses {
		t.Fatalf("hit accounting diverged: self-hashed %+v, prehashed %+v", sp, se)
	}
}

func TestPrivatePrehashedLengthMismatchPanics(t *testing.T) {
	p := NewPrivate(256)
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	p.ClassifyBatchPrehashedInto(1, make([]packet.Header, 4), make([]uint64, 3), make([]int, 4), nil)
}

func TestPrivatePrehashedZeroAllocSteadyState(t *testing.T) {
	p := NewPrivate(4096)
	trace := make([]packet.Header, 512)
	hashes := make([]uint64, len(trace))
	for i := range trace {
		f := uint32(i % 128)
		trace[i] = packet.Header{SIP: f * 3, DIP: f * 5, SP: uint16(f), DP: 443, Proto: 6}
		hashes[i] = trace[i].Hash()
	}
	out := make([]int, len(trace))
	missFn := func(hdrs []packet.Header, o []int) {
		for i := range hdrs {
			o[i] = int(hdrs[i].SIP) & 0x7f
		}
	}
	p.ClassifyBatchPrehashedInto(1, trace, hashes, out, missFn) // warm scratch
	allocs := testing.AllocsPerRun(50, func() {
		p.ClassifyBatchPrehashedInto(1, trace, hashes, out, missFn)
	})
	if allocs != 0 {
		t.Fatalf("prehashed steady state allocated %v times per run, want 0", allocs)
	}
}
