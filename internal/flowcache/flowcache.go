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
// set-associative buckets (hash low bits) of bucketWays entries with a
// per-bucket CLOCK hand giving second-chance eviction, owned by a single
// goroutine. Capacity is fixed at construction: the steady state allocates
// nothing, inserts into a full bucket evict in place, and the whole
// structure is one flat slice. The serving layer gives every steered
// worker its own Private. Cache is the same table behind one mutex, for
// callers that share a cache between goroutines; its batch path takes the
// lock once to probe and once to insert, never across the engine call.
//
// # Generations
//
// Correctness under the serving layer's atomic engine hot-swap is the
// point of the design. Every entry is tagged with the generation of the
// engine build that produced its result, and generations are allocated —
// never reused — by NextGeneration. A lookup only hits when the entry's
// tag equals the generation the caller is serving; after a swap installs a
// build with a fresh generation, every entry written by retired builds
// becomes a lazy miss (counted as a stale drop when its slot is reclaimed).
// There is no stop-the-world flush and readers never block: a batch still
// in flight on the previous build keeps hitting that build's entries —
// exactly the batch-on-one-engine-version semantics the serving layer
// already guarantees — while batches on the new build repopulate slots as
// they miss. Because a generation names one immutable engine build, a hit
// can never return a decision from any other build, regardless of how
// loads and swaps interleave.
package flowcache

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pktclass/internal/metrics"
	"pktclass/internal/packet"
)

// bucketWays is the set associativity: the CLOCK hand sweeps this many
// candidates before a victim is forced, bounding probe work per lookup.
const bucketWays = 8

// entry is one cached classification, keyed on the tuple's two words
// (packet.Header.Words); an entry is 32 bytes. gen 0 marks an empty slot
// (NextGeneration starts at 1).
type entry struct {
	hi, lo uint64
	gen    uint64
	result int32
	ref    bool // CLOCK second-chance bit, set on hit
}

// bucket is one set: bucketWays entries plus the CLOCK hand.
type bucket struct {
	hand    uint8
	entries [bucketWays]entry
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
	StaleDrops int64  // retired-generation entries dropped or overwritten
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

// lookup probes the bucket for the flow hi:lo at generation gen. The
// second return distinguishes a hit from a miss; staleDropped reports that
// a same-flow entry from a retired generation was dropped (a lazy miss
// whose slot the reinsert will reclaim). The caller supplies the
// synchronization and owns the counters.
//
//pclass:hotpath
func (b *bucket) lookup(hi, lo, gen uint64) (result int32, hit, staleDropped bool) {
	for i := range b.entries {
		e := &b.entries[i]
		if e.hi == hi && e.lo == lo && e.gen != 0 {
			if e.gen == gen {
				e.ref = true
				return e.result, true, false
			}
			// Same flow, retired build: a lazy miss. Drop it now so the
			// reinsert reclaims this slot instead of evicting a live entry.
			e.gen = 0
			return 0, false, true
		}
	}
	return 0, false, false
}

// insert stores (hi:lo, gen, result), preferring in place the same flow,
// then an empty or stale slot, then the CLOCK victim. evicted reports a live
// same-generation entry was displaced; staleDropped that a
// retired-generation entry was overwritten (one left in its slot is not
// counted: the insert that reclaims it will). Synchronization is the
// caller's, as with lookup.
//
//pclass:hotpath
func (b *bucket) insert(hi, lo, gen uint64, result int32) (evicted, staleDropped bool) {
	victim := -1
	for i := range b.entries {
		e := &b.entries[i]
		switch {
		case e.gen == 0:
			if victim < 0 {
				victim = i
			}
		case e.hi == hi && e.lo == lo:
			// Refresh in place (a concurrent batch may have raced the same
			// miss, or the flow was re-classified under a newer build). A
			// cross-generation refresh is effectively a new entry, so it
			// also loses any accumulated second chance.
			staleDropped = e.gen != gen
			if staleDropped {
				e.ref = false
			}
			e.gen, e.result = gen, result
			return false, staleDropped
		case e.gen != gen && victim < 0:
			// Retired-generation entries are dead weight; reclaim before
			// touching any live entry.
			victim, staleDropped = i, true
		}
	}
	if victim < 0 {
		// Second chance: sweep the hand, clearing ref bits, and evict the
		// first entry that was not hit since the last sweep. Bounded at two
		// laps, after which the hand's entry is taken unconditionally.
		for sweep := 0; sweep < 2*bucketWays; sweep++ {
			e := &b.entries[b.hand]
			if !e.ref {
				victim = int(b.hand)
				b.hand = (b.hand + 1) % bucketWays
				break
			}
			e.ref = false
			b.hand = (b.hand + 1) % bucketWays
		}
		if victim < 0 {
			victim = int(b.hand)
		}
		evicted = true
	}
	// New entries start unreferenced: second chance is earned by a hit,
	// otherwise a stream of one-shot flows would flush every hot entry.
	b.entries[victim] = entry{hi: hi, lo: lo, gen: gen, result: result}
	return evicted, staleDropped
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
