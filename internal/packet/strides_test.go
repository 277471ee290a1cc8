package packet

import (
	"math/rand"
	"testing"
)

// StridesInto is the batched fast path of Stride, in a Key and a Header
// form; all three must agree bit for bit for every stride width and random
// key. Widths past 8 are not engine strides but exercise the straddling
// and past-bit-127 stages of the extractor.
func TestStridesIntoMatchesStride(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for kbits := 1; kbits <= 64; kbits++ {
		stages := NumStrides(kbits)
		addrs, fromHeader := make([]int, stages), make([]int, stages)
		for trial := 0; trial < 200; trial++ {
			h := Header{
				SIP:   rng.Uint32(),
				DIP:   rng.Uint32(),
				SP:    uint16(rng.Uint32()),
				DP:    uint16(rng.Uint32()),
				Proto: uint8(rng.Uint32()),
			}
			key := h.Key()
			key.StridesInto(kbits, addrs)
			h.StridesInto(kbits, fromHeader)
			for s := 0; s < stages; s++ {
				if want := key.Stride(s*kbits, kbits); addrs[s] != want || fromHeader[s] != want {
					t.Fatalf("k=%d stage %d: Key.StridesInto=%d Header.StridesInto=%d Stride=%d for %s",
						kbits, s, addrs[s], fromHeader[s], want, h)
				}
			}
		}
	}
}

func TestStridesIntoShortBufferPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("short buffer accepted")
		}
	}()
	var k Key
	k.StridesInto(4, make([]int, NumStrides(4)-1))
}

func TestStridesIntoZeroAlloc(t *testing.T) {
	key := Header{SIP: 0xc0a80101, DIP: 0x0a000001, SP: 1234, DP: 80, Proto: 6}.Key()
	addrs := make([]int, NumStrides(3))
	if allocs := testing.AllocsPerRun(100, func() {
		key.StridesInto(3, addrs)
	}); allocs != 0 {
		t.Fatalf("StridesInto allocates %.1f per run", allocs)
	}
}
