package packet

// WordsHash mixes the 104 tuple bits, in the left-aligned two-word form
// Header.Words produces, into a 64-bit value with a splitmix64-style
// finalizer: the high word is the tuple's first 64 bits, and the low word
// enters as lo>>24, its 40 tuple bits right-aligned. It is the one flow
// hash the whole system steers by: the flow cache derives bucket addresses
// from it, and the serving layer's RSS-style submit path derives the
// worker index from it — the software analogue of a NIC's RSS hash feeding
// both the receive-queue selector and the flow-table index.
//
// Output bit budget (so the consumers never alias each other):
//
//	bits  0..31 — flow-cache bucket index (the caches mask low bits)
//	bits 32..63 — worker steering (SteerWorker)
//
// SteerWorker consumes h>>32 while cache buckets consume low bits, so a
// worker-private cache (which sees only keys steered to its worker) still
// populates its whole bucket array instead of the 1/W slice whose low
// bits happen to equal the worker index.
//
//pclass:hotpath
func WordsHash(hi, lo uint64) uint64 {
	h := hi*0x9e3779b97f4a7c15 ^ lo>>24
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Hash is the header's flow hash, WordsHash over Header.Words: equal to
// h.Key().Hash() without packing the 13-byte key.
//
//pclass:hotpath
func (h Header) Hash() uint64 { return WordsHash(h.Words()) }

// Hash is WordsHash over Key.Words, the flow hash of an already packed key.
//
//pclass:hotpath
func (k Key) Hash() uint64 { return WordsHash(k.Words()) }

// SteerWorker maps a flow hash to a worker index in [0, workers) using the
// fixed-point range reduction ((h>>32) * workers) >> 32 — no division, and
// only the high hash word is consumed, leaving the low word for cache
// bucket addressing (see WordsHash). The mapping is stable for a given
// worker count: every packet of a flow lands on the same worker, which is
// what makes worker-private flow caches coherent without locks.
//
//pclass:hotpath
func SteerWorker(h uint64, workers int) int {
	return int(((h >> 32) * uint64(workers)) >> 32)
}
