package flowcache

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"

	"pktclass/internal/obsv"
	"pktclass/internal/packet"
)

// Private is the exact-match flow table, owned by exactly one goroutine:
// behind RSS-style flow steering every packet of a flow reaches the same
// worker, so that worker's table needs no lock and sees no cross-core
// cache-line traffic on the probe path. All mutating methods (Lookup,
// Insert, ClassifyBatchPrehashedInto) must be called from the owner — or,
// as Cache does, under a lock; Stats and SetProbeHistogram are safe from
// any goroutine (the counters are atomic so scrapes never race the owner).
//
// Private does not allocate generations: the serving layer owns one
// generation counter per service and passes the live build's generation
// into every call, so a hot-swap retires every worker's private entries at
// once without touching any of the caches.
type Private struct {
	buckets    []bucket
	bucketMask uint64

	hits       obsv.Counter
	misses     obsv.Counter
	coalesced  obsv.Counter
	evictions  obsv.Counter
	staleDrops obsv.Counter
	lastGen    atomic.Uint64

	probeHist atomic.Pointer[obsv.Histogram]

	// The single writer's batch workspace: grown once, reused for every
	// batch, never pooled — there is no concurrency to pool against.
	scratch batchScratch
}

// batchScratch is one batch's workspace between the probe and fill phases:
// the compacted leaders, their followers and the table that tells them
// apart. Private owns one; Cache pools them, one per in-flight batch.
//
//pclass:pooled
type batchScratch struct {
	misses    []miss
	missHdrs  []packet.Header
	missOut   []int
	followers []follower
	nFollow   int // followers[:nFollow] are this batch's

	// seen is coalesce's table, open-addressed over a power of two ≥ 2×
	// the longest batch so far; a slot belongs to the batch whose stamp it
	// carries, so a new batch only bumps stamp.
	seen  []seenSlot
	stamp uint32
}

// miss is one probe miss, and after coalesce one leader: the flow words
// and hash fill inserts it under, written by probe, and its position in
// the batch.
type miss struct {
	hi, lo, hash uint64
	idx          int32
}

// follower is a repeat miss: its position in the batch and the index in
// misses of its flow's leader, whose result fill copies to it.
type follower struct{ idx, leader int32 }

// seenSlot is one coalescing-table slot: the stamp of the batch that wrote
// it and the index in misses of the leader whose flow it keys. The flow
// words are the leader's, so the slot holds no copy of the tuple.
type seenSlot struct {
	stamp  uint32
	leader int32
}

// grow ensures the scratch holds n packets.
func (sc *batchScratch) grow(n int) {
	if len(sc.misses) < n {
		sc.alloc(n)
	}
}

// alloc sizes the scratch for n packets. It runs only while batches keep
// getting longer, so it stays out of line, out of probe's body.
//
//go:noinline
func (sc *batchScratch) alloc(n int) {
	sc.misses = make([]miss, n)
	sc.missHdrs = make([]packet.Header, n)
	sc.missOut = make([]int, n)
	sc.followers = make([]follower, n)
	sc.seen = make([]seenSlot, ceilPow2(2*n))
}

// NewPrivate builds a private cache with at least entries capacity,
// rounded up to a power-of-two number of bucketWays-entry buckets
// (entries <= 0 selects 1<<12 — per worker, not per service).
func NewPrivate(entries int) *Private {
	if entries <= 0 {
		entries = 1 << 12
	}
	nBuckets := ceilPow2((entries + bucketWays - 1) / bucketWays)
	return &Private{
		buckets:    make([]bucket, nBuckets),
		bucketMask: uint64(nBuckets - 1),
	}
}

func ceilPow2(v int) int {
	if v <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(v-1))
}

// Entries returns the fixed capacity.
func (p *Private) Entries() int { return len(p.buckets) * bucketWays }

// SetProbeHistogram directs batched probe-phase latency into h (nil
// disables). Safe to call while the owner is serving.
func (p *Private) SetProbeHistogram(h *obsv.Histogram) { p.probeHist.Store(h) }

// Stats snapshots the counters. Safe from any goroutine; Generation is the
// newest generation the owner has served.
func (p *Private) Stats() Stats {
	return Stats{
		Hits:       p.hits.Value(),
		Misses:     p.misses.Value(),
		Coalesced:  p.coalesced.Value(),
		Evictions:  p.evictions.Value(),
		StaleDrops: p.staleDrops.Value(),
		Entries:    p.Entries(),
		Shards:     1,
		Generation: p.lastGen.Load(),
	}
}

// Lookup probes the cache for one key at generation gen. Owner only.
//
//pclass:hotpath
func (p *Private) Lookup(key packet.Key, gen uint64) (int32, bool) {
	hi, lo := key.Words()
	r, hit := p.buckets[packet.WordsHash(hi, lo)&p.bucketMask].lookup(hi, lo, gen)
	if hit {
		p.hits.Inc()
	} else {
		p.misses.Inc()
	}
	return r, hit
}

// Insert stores one classification result for key at generation gen.
// Owner only.
//
//pclass:hotpath
func (p *Private) Insert(key packet.Key, gen uint64, result int32) {
	hi, lo := key.Words()
	evicted, stale := p.buckets[packet.WordsHash(hi, lo)&p.bucketMask].insert(hi, lo, gen, result)
	if evicted {
		p.evictions.Inc()
	}
	if stale > 0 {
		p.staleDrops.Add(int64(stale))
	}
}

// ClassifyBatchPrehashedInto classifies hdrs into out at generation gen,
// answering what it can from the cache and calling classifyMisses at most
// once (when there are misses) with the batch's distinct missing flows,
// each once; fresh results are inserted before returning. Probes run in
// arrival order on the owner's core. Steady state allocates nothing. Owner
// only; classifyMisses must not retain its argument slices.
//
// The flow hashes come with the batch: hashes[i] must equal
// hdrs[i].Hash(). The steered serving path hashes every header once to
// pick the worker and passes the values through, so the private cache
// never rehashes — one splitmix64 finalizer per packet saved on the
// hottest path.
//
//pclass:hotpath
func (p *Private) ClassifyBatchPrehashedInto(gen uint64, hdrs []packet.Header, hashes []uint64, out []int, classifyMisses func(hdrs []packet.Header, out []int)) {
	if len(hashes) != len(hdrs) {
		panic(fmt.Sprintf("flowcache: prehashed batch hash length %d != input length %d", len(hashes), len(hdrs)))
	}
	p.classifyBatch(gen, hdrs, hashes, out, classifyMisses)
}

// classifyBatch is the single-writer batch body: probe, classify the
// misses, fill. pre, when non-nil, carries the caller-computed flow hashes.
//
//pclass:hotpath
func (p *Private) classifyBatch(gen uint64, hdrs []packet.Header, pre []uint64, out []int, classifyMisses func(hdrs []packet.Header, out []int)) {
	if batchLen(hdrs, out) == 0 {
		return
	}
	sc := &p.scratch
	m := p.probe(sc, gen, hdrs, pre, out)
	if m == 0 {
		return
	}
	classifyMisses(sc.missHdrs[:m], sc.missOut[:m])
	p.fill(sc, gen, m, out)
}

// batchLen returns the batch length, rejecting an output slice that does
// not match it — before any lock is taken or table state touched.
//
//pclass:hotpath
func batchLen(hdrs []packet.Header, out []int) int {
	if len(out) != len(hdrs) {
		panic(fmt.Sprintf("flowcache: batch output length %d != input length %d", len(out), len(hdrs)))
	}
	return len(hdrs)
}

// probe is the batch's first phase: it answers every hit into out,
// compacts the misses into sc and folds each repeated miss into its flow's
// first (coalesce), returning the leader count m: headers in
// sc.missHdrs[:m], flow words, hashes and batch positions in
// sc.misses[:m]. pre, when non-nil, carries caller-computed flow hashes;
// nil computes them from each header's words. Each header's words are read
// once, here: fill inserts from sc.misses, whatever the miss callback did
// to sc.missHdrs, and the caller's hashes are not retained.
//
//pclass:hotpath
func (p *Private) probe(sc *batchScratch, gen uint64, hdrs []packet.Header, pre []uint64, out []int) int {
	if p.lastGen.Load() != gen {
		p.lastGen.Store(gen)
	}
	sc.grow(len(hdrs))

	probeHist := p.probeHist.Load()
	var probeStart time.Time
	if probeHist != nil {
		probeStart = time.Now()
	}
	hits, m := 0, 0
	for i, h := range hdrs {
		hi, lo := h.Words()
		var hv uint64
		if pre != nil {
			hv = pre[i]
		} else {
			hv = packet.WordsHash(hi, lo)
		}
		r, hit := p.buckets[hv&p.bucketMask].lookup(hi, lo, gen)
		if hit {
			out[i] = int(r)
			hits++
			continue
		}
		sc.misses[m] = miss{hi: hi, lo: lo, hash: hv, idx: int32(i)}
		sc.missHdrs[m] = h
		m++
	}
	p.hits.Add(int64(hits))
	p.misses.Add(int64(m))
	sc.nFollow = 0
	if m > 1 {
		leaders := sc.coalesce(m)
		if leaders < m {
			p.coalesced.Add(int64(m - leaders))
		}
		m = leaders
	}
	if probeHist != nil {
		probeHist.Observe(time.Since(probeStart))
	}
	return m
}

// coalesce folds the repeats among the m compacted misses into followers
// of their flow's first miss, its leader, compacting the leaders in place
// in arrival order, and returns the leader count. It keys each miss in
// sc.seen under a fresh batch stamp, by the low bits of the hash's high
// word: buckets read the low word, and steering's range reduction pins
// only the high word's top bits on one worker, so those bits still spread
// the flows one worker sees.
//
//pclass:hotpath
func (sc *batchScratch) coalesce(m int) int {
	sc.stamp++
	if sc.stamp == 0 { // wrapped: no slot may look written by this batch
		clear(sc.seen)
		sc.stamp = 1
	}
	seen, stamp, mask := sc.seen, sc.stamp, uint32(len(sc.seen)-1)
	leaders, f := 0, 0
	for j := range sc.misses[:m] {
		ms := sc.misses[j]
		for s := uint32(ms.hash>>32) & mask; ; s = (s + 1) & mask {
			sl := &seen[s]
			if sl.stamp != stamp {
				*sl = seenSlot{stamp: stamp, leader: int32(leaders)}
				sc.misses[leaders] = ms
				sc.missHdrs[leaders] = sc.missHdrs[j]
				leaders++
				break
			}
			if l := &sc.misses[sl.leader]; l.hi == ms.hi && l.lo == ms.lo {
				sc.followers[f] = follower{idx: ms.idx, leader: sl.leader}
				f++
				break
			}
		}
	}
	sc.nFollow = f
	return leaders
}

// fill is the batch's second phase: it scatters the m engine results in
// sc.missOut back into out and inserts each under gen, at the flow words
// and hash probe recorded for it, then copies each leader's result to its
// followers.
//
//pclass:hotpath
func (p *Private) fill(sc *batchScratch, gen uint64, m int, out []int) {
	evicted, stale := 0, 0
	for j := range sc.misses[:m] {
		ms := &sc.misses[j]
		r := sc.missOut[j]
		out[ms.idx] = r
		ev, st := p.buckets[ms.hash&p.bucketMask].insert(ms.hi, ms.lo, gen, int32(r))
		if ev {
			evicted++
		}
		stale += st
	}
	for _, f := range sc.followers[:sc.nFollow] {
		out[f.idx] = sc.missOut[f.leader]
	}
	if evicted > 0 {
		p.evictions.Add(int64(evicted))
	}
	if stale > 0 {
		p.staleDrops.Add(int64(stale))
	}
}
