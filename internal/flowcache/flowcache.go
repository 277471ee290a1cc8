// Package flowcache is a fixed-capacity, zero-allocation exact-match cache
// on the 104-bit 5-tuple, held as the two words packet.Header.Words
// produces and compared whole — the software analogue of the
// exact-match flow table real datapaths put in front of a full classifier
// (RVH-style front-ends, OpenFlow microflow caches). Real traffic is
// flow-dominated: the same 5-tuple arrives in long bursts, so a
// tens-of-nanoseconds probe short-circuits the full StrideBV pipeline or
// TCAM scan (hundreds to thousands of ns) for every packet after a flow's
// first.
//
// # Structure
//
// There is one table type, Private: a power-of-two array of
// set-associative buckets (hash low bits) of bucketWays 16-byte slots —
// the tuple's two words, the result riding in the low bits the tuple
// leaves zero — under one 16-byte header holding the generation, the
// valid and CLOCK reference bits and the hand for second-chance eviction,
// 18 bytes an entry; a Private is owned by a single goroutine. Capacity is
// fixed at construction: the steady state allocates nothing, inserts into
// a full bucket evict in place, and the whole structure is one flat slice.
// The serving layer gives every steered worker its own Private. Cache is
// the same table behind one mutex, for callers that share a cache between
// goroutines; its batch path takes the lock once to probe and once to
// insert, never across the engine call.
//
// # Generations
//
// Correctness under the serving layer's atomic engine hot-swap is the
// point of the design. Generations are allocated — never reused — by
// NextGeneration, one per engine build, and each bucket records the one
// generation all its entries were stored under. A lookup only hits when
// the bucket's generation equals the generation the caller is serving.
// After a swap installs a build with a fresh generation, every bucket
// written by retired builds becomes a lazy miss; the first insert under
// the new generation retires the bucket, emptying it, and the valid
// entries it empties are counted as stale drops. An insert under a
// generation older than the bucket's is answered to its caller but not
// stored, and so is a result of 2^24−1 or above (rule indices past 16M)
// or below −1, which a slot has no room for. There is no stop-the-world
// flush and readers never block: a batch still in flight on the previous
// build misses where the new build has retired a bucket and reaches that
// build's engine — exactly the batch-on-one-engine-version semantics the
// serving layer already guarantees — while batches on the new build
// repopulate buckets as they miss. Because a generation names one immutable engine
// build, a hit can never return a decision from any other build,
// regardless of how loads and swaps interleave.
package flowcache

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"pktclass/internal/metrics"
	"pktclass/internal/packet"
)

// bucketWays is the set associativity: the CLOCK hand sweeps this many
// candidates before a victim is forced, bounding probe work per lookup. A
// bucket's valid and reference bits are one byte each, so it is at most 8.
const bucketWays = 8

// A slot's result rides in the low resultBits bits of its lo word, which
// packet.Header.Words and packet.Key.Words always leave zero, stored as
// result+1 so that the no-match result -1 is 0. Results outside
// [-1, maxResult] are answered but never stored.
const (
	resultBits = 24
	resultMask = 1<<resultBits - 1
	maxResult  = resultMask - 1
)

// slot is one cached classification: the tuple's two words
// (packet.Header.Words), lo carrying result+1 in its resultBits low bits.
// A slot is 16 bytes; whether it holds anything is its bucket's business.
type slot struct{ hi, lo uint64 }

// bucket is one set: bucketWays slots under one header — the generation
// every valid slot was stored under, the valid and CLOCK reference bits
// (bit i for slot i) and the CLOCK hand. A bucket is 144 bytes, 18 per
// entry.
type bucket struct {
	gen        uint64
	valid, ref uint8
	hand       uint8
	slots      [bucketWays]slot
}

// Config sizes a Cache.
type Config struct {
	// Entries is the capacity; it is rounded up to a power-of-two number of
	// bucketWays-entry buckets (0 selects 1<<16).
	Entries int
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits       int64  // lookups answered from the cache
	Misses     int64  // lookups that fell through to the engine
	Evictions  int64  // live same-generation entries displaced by CLOCK
	StaleDrops int64  // entries emptied when a newer generation retired their bucket
	Entries    int    // fixed capacity
	Shards     int    // tables behind the snapshot (1, or serve's worker count)
	Generation uint64 // newest generation handed out (0 before any build)
}

// HitRate is hits over lookups, 0 with no traffic.
func (s Stats) HitRate() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

// Table renders the snapshot through the metrics table model.
func (s Stats) Table() *metrics.Table {
	t := &metrics.Table{Title: "flow cache", Headers: []string{"counter", "value"}}
	t.AddRow("capacity", fmt.Sprint(s.Entries))
	t.AddRow("shards", fmt.Sprint(s.Shards))
	t.AddRow("hits", fmt.Sprint(s.Hits))
	t.AddRow("misses", fmt.Sprint(s.Misses))
	t.AddRow("hit rate", fmt.Sprintf("%.1f%%", 100*s.HitRate()))
	t.AddRow("evictions", fmt.Sprint(s.Evictions))
	t.AddRow("stale drops", fmt.Sprint(s.StaleDrops))
	t.AddRow("generation", fmt.Sprint(s.Generation))
	return t
}

// Cache is a Private behind one mutex, plus the generation allocator. All
// methods are safe for concurrent use; every table access happens under mu.
type Cache struct {
	mu sync.Mutex
	p  *Private

	gen atomic.Uint64 // last generation handed out by NextGeneration

	scratch sync.Pool // *batchScratch: one per in-flight batch
}

// New builds a fixed-capacity cache. The zero Config selects 1<<16 entries.
func New(cfg Config) *Cache {
	if cfg.Entries <= 0 {
		cfg.Entries = 1 << 16
	}
	return &Cache{
		p:       NewPrivate(cfg.Entries),
		scratch: sync.Pool{New: func() any { return new(batchScratch) }},
	}
}

// Entries returns the fixed capacity.
func (c *Cache) Entries() int { return c.p.Entries() }

// NextGeneration allocates a fresh, never-reused generation for one engine
// build. The serving layer calls it once per hot-swap; entries tagged by
// any earlier generation become lazy misses for the new build.
func (c *Cache) NextGeneration() uint64 { return c.gen.Add(1) }

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	st := c.p.Stats()
	st.Generation = c.gen.Load()
	return st
}

// Hash mixes the 104 key bits into the 64-bit probe hash buckets are
// addressed by. It is packet.Key.Hash, which is packet.WordsHash — the
// same flow hash the serving layer steers workers with — so the bit-budget
// contract documented there (steering consumes high bits, buckets consume
// low bits) holds across both consumers by construction.
//
//pclass:hotpath
func Hash(k packet.Key) uint64 { return k.Hash() }

// lookup probes the bucket for the flow hi:lo at generation gen. It hits
// only when the bucket holds generation gen, and writes nothing but the
// hit slot's reference bit. The caller supplies the synchronization and
// owns the counters.
//
//pclass:hotpath
func (b *bucket) lookup(hi, lo, gen uint64) (result int32, hit bool) {
	if b.gen != gen {
		return 0, false
	}
	for i := range b.slots {
		s := &b.slots[i]
		if s.hi == hi && s.lo&^resultMask == lo && b.valid&(1<<i) != 0 {
			b.ref |= 1 << i
			return int32(s.lo&resultMask) - 1, true
		}
	}
	return 0, false
}

// insert stores (hi:lo, result) under gen. Under a generation newer than
// the bucket's it first retires the bucket — empties every slot, the valid
// ones being its staleDrops — and under an older one it stores nothing:
// that build has been replaced, and no lookup of the bucket's generation
// may see its result. A result outside [-1, maxResult] is not stored either,
// and drops the flow's slot if it has one, so no hit returns a result this
// insert superseded. Otherwise the flow's slot is refreshed in place, or
// the first empty slot taken, or the CLOCK victim evicted (evicted reports
// it). Synchronization is the caller's, as with lookup.
//
//pclass:hotpath
func (b *bucket) insert(hi, lo, gen uint64, result int32) (evicted bool, staleDrops int) {
	if gen < b.gen {
		return false, 0
	}
	if gen != b.gen {
		staleDrops = bits.OnesCount8(b.valid)
		b.gen, b.valid, b.ref = gen, 0, 0
	}
	keep := uint32(result+1) <= resultMask
	victim := -1
	for i := range b.slots {
		s := &b.slots[i]
		switch {
		case b.valid&(1<<i) == 0:
			if victim < 0 {
				victim = i
			}
		case s.hi == hi && s.lo&^resultMask == lo:
			// Refresh in place: a concurrent batch raced the same miss.
			if keep {
				s.lo = lo | uint64(result+1)
			} else {
				b.valid &^= 1 << i
			}
			return false, staleDrops
		}
	}
	if !keep {
		return false, staleDrops
	}
	if victim < 0 {
		// Second chance: sweep the hand, clearing reference bits, and evict
		// the first slot not hit since the last sweep. Within one lap every
		// bit is clear, so the loop ends by the hand's second visit.
		for b.ref&(1<<b.hand) != 0 {
			b.ref &^= 1 << b.hand
			b.hand = (b.hand + 1) % bucketWays
		}
		victim = int(b.hand)
		b.hand = (b.hand + 1) % bucketWays
		evicted = true
	}
	// New slots start unreferenced: second chance is earned by a hit,
	// otherwise a stream of one-shot flows would flush every hot entry.
	b.slots[victim] = slot{hi: hi, lo: lo | uint64(result+1)}
	b.valid |= 1 << victim
	b.ref &^= 1 << victim
	return evicted, staleDrops
}

// Lookup probes the cache for one key at generation gen.
//
//pclass:hotpath
func (c *Cache) Lookup(key packet.Key, gen uint64) (int32, bool) {
	c.mu.Lock()
	r, ok := c.p.Lookup(key, gen)
	c.mu.Unlock()
	return r, ok
}

// Insert stores one classification result for key at generation gen.
//
//pclass:hotpath
func (c *Cache) Insert(key packet.Key, gen uint64, result int32) {
	c.mu.Lock()
	c.p.Insert(key, gen, result)
	c.mu.Unlock()
}

// ClassifyBatchInto classifies hdrs into out at generation gen, answering
// what it can from the cache and calling classifyMisses at most once (when
// there are misses) with the compacted miss set to fill in the rest; the
// fresh results are inserted before returning. The lock is taken once to
// probe and once to insert and is never held across classifyMisses, which
// may therefore call back into the cache. The steady state allocates
// nothing (scratch is pooled). classifyMisses must not retain its argument
// slices.
//
//pclass:hotpath
func (c *Cache) ClassifyBatchInto(gen uint64, hdrs []packet.Header, out []int, classifyMisses func(hdrs []packet.Header, out []int)) {
	if batchLen(hdrs, out) == 0 {
		return
	}
	sc := c.scratch.Get().(*batchScratch)
	defer c.scratch.Put(sc)

	c.mu.Lock()
	m := c.p.probe(sc, gen, hdrs, nil, out)
	c.mu.Unlock()
	if m == 0 {
		return
	}
	classifyMisses(sc.missHdrs[:m], sc.missOut[:m])
	c.mu.Lock()
	c.p.fill(sc, gen, m, out)
	c.mu.Unlock()
}
