package packet

// Hash mixes the 104 key bits into a 64-bit value with a splitmix64-style
// finalizer over two input words: a 64-bit high word (key bytes 0..7) and
// a 40-bit low word (key bytes 8..12). It is the one flow hash the whole
// system steers by: the flow cache derives bucket addresses from it, and
// the serving layer's RSS-style submit path derives the worker index from
// it — the software analogue of a NIC's RSS hash feeding both the
// receive-queue selector and the flow-table index.
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
func (k Key) Hash() uint64 {
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

// SteerWorker maps a flow hash to a worker index in [0, workers) using the
// fixed-point range reduction ((h>>32) * workers) >> 32 — no division, and
// only the high hash word is consumed, leaving the low word for cache
// bucket addressing (see Hash). The mapping is stable for a given worker
// count: every packet of a flow lands on the same worker, which is what
// makes worker-private flow caches coherent without locks.
//
//pclass:hotpath
func SteerWorker(h uint64, workers int) int {
	return int(((h >> 32) * uint64(workers)) >> 32)
}
