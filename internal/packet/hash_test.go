package packet

import (
	"math/rand"
	"testing"
)

func randomHeader(rng *rand.Rand) Header {
	return Header{
		SIP:   rng.Uint32(),
		DIP:   rng.Uint32(),
		SP:    uint16(rng.Uint32()),
		DP:    uint16(rng.Uint32()),
		Proto: uint8(rng.Uint32()),
	}
}

// Every key bit must disturb the hash: flows differing in one header bit
// may not collide systematically, or steering would pile those flows onto
// one worker.
func TestHashBitSensitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 64; trial++ {
		h := randomHeader(rng)
		k := h.Key()
		base := k.Hash()
		for bit := 0; bit < W; bit++ {
			flipped := k
			flipped[bit>>3] ^= 1 << (7 - uint(bit&7))
			if flipped.Hash() == base {
				t.Fatalf("flipping key bit %d left the hash unchanged (%#x)", bit, base)
			}
		}
	}
}

func TestSteerWorkerRangeAndStability(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10000; trial++ {
		h := randomHeader(rng).Key().Hash()
		for _, workers := range []int{1, 2, 3, 4, 7, 8, 16} {
			w := SteerWorker(h, workers)
			if w < 0 || w >= workers {
				t.Fatalf("SteerWorker(%#x, %d) = %d out of range", h, workers, w)
			}
			if again := SteerWorker(h, workers); again != w {
				t.Fatalf("SteerWorker not stable: %d then %d", w, again)
			}
		}
	}
	if SteerWorker(0, 1) != 0 || SteerWorker(^uint64(0), 1) != 0 {
		t.Fatal("single worker must absorb every hash")
	}
}

// Uniform random flows must spread roughly evenly across workers — a
// skewed steer would turn the per-worker caches and queues into hot spots.
func TestSteerWorkerDistribution(t *testing.T) {
	const flows = 64 * 1024
	for _, workers := range []int{2, 4, 8} {
		counts := make([]int, workers)
		rng := rand.New(rand.NewSource(int64(3 + workers)))
		for i := 0; i < flows; i++ {
			counts[SteerWorker(randomHeader(rng).Key().Hash(), workers)]++
		}
		want := flows / workers
		for w, got := range counts {
			if got < want*8/10 || got > want*12/10 {
				t.Fatalf("workers=%d: worker %d got %d flows, want %d +/-20%%", workers, w, got, want)
			}
		}
	}
}

// Steering and bucket addressing must consume disjoint hash bits: all keys
// steered to one worker still cover the low-bit space a private cache
// addresses buckets with (see the WordsHash bit-budget comment).
func TestSteerWorkerIndependentOfLowBits(t *testing.T) {
	const workers = 8
	const lowMask = 1<<14 - 1 // larger than any realistic bucket array
	seen := make(map[uint64]bool)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 256*1024; i++ {
		h := randomHeader(rng).Key().Hash()
		if SteerWorker(h, workers) == 3 {
			seen[h&lowMask] = true
		}
	}
	if got := len(seen); got < lowMask/2 {
		t.Fatalf("worker 3's flows cover only %d of %d low-bit values: steering aliases bucket bits", got, lowMask+1)
	}
}
