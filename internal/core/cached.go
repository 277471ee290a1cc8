package core

import (
	"fmt"

	"pktclass/internal/flowcache"
	"pktclass/internal/packet"
)

// Cached wraps an engine with an exact-match flow cache: Classify and
// ClassifyBatch answer repeated 5-tuples from the cache and fall through
// to the wrapped engine only for flows it has not seen. Every engine gets
// the fast path for free — Cached implements both Engine and
// BatchClassifier, and the cached batch path stays allocation-free in
// steady state.
//
// A Cached instance is pinned to one cache generation, allocated from the
// cache at construction: the generation names this exact engine
// build, so a cache hit can only ever return a decision this build (or an
// identical earlier wrap of the same build's ruleset) produced. The
// serving layer exploits this for hot-swaps — it wraps each freshly
// verified engine in a new Cached over the same cache, and the pointer
// swap retires the old generation's entries as lazy misses with no flush
// and no reader coordination.
//
// MultiMatch is deliberately uncached: the cache stores the single
// highest-priority decision, and IDS-style full match lists stay on the
// engine's own path.
type Cached struct {
	eng   Engine
	cache *flowcache.Cache
	gen   uint64
	// missFn is the pre-bound fallback for flowcache.ClassifyBatchInto,
	// built once so the hot path never constructs a closure.
	missFn func([]packet.Header, []int)
}

// NewCached wraps eng with the cache under a freshly allocated generation.
// Both arguments must be non-nil; eng must be safe for concurrent use
// (every engine cli.EngineNames lists is; the single-goroutine cycle model
// tcam.FPGA is not).
func NewCached(eng Engine, cache *flowcache.Cache) *Cached {
	if eng == nil {
		panic("core: NewCached with nil engine")
	}
	if cache == nil {
		panic("core: NewCached with nil cache")
	}
	c := &Cached{eng: eng, cache: cache, gen: cache.NextGeneration()}
	c.missFn = func(hdrs []packet.Header, out []int) {
		ClassifyBatchInto(c.eng, hdrs, out)
	}
	return c
}

// Unwrap peels engine wrappers off eng until a bare engine remains
// (currently the only wrapper is Cached). The serving layer's incremental
// update path uses it to reach the engine that actually owns state worth
// updating in place; the wrapper is reapplied, under a fresh cache
// generation, around the updated engine.
func Unwrap(eng Engine) Engine {
	for {
		c, ok := eng.(*Cached)
		if !ok {
			return eng
		}
		eng = c.eng
	}
}

// Name identifies the engine for reports.
func (c *Cached) Name() string { return fmt.Sprintf("cached(%s)", c.eng.Name()) }

// Unwrap returns the underlying engine.
func (c *Cached) Unwrap() Engine { return c.eng }

// Cache returns the flow cache (for stats snapshots).
func (c *Cached) Cache() *flowcache.Cache { return c.cache }

// Generation returns the cache generation this build is pinned to.
func (c *Cached) Generation() uint64 { return c.gen }

// Classify returns the highest-priority matching rule index, consulting
// the flow cache first.
//
//pclass:hotpath
func (c *Cached) Classify(h packet.Header) int {
	key := h.Key()
	if r, ok := c.cache.Lookup(key, c.gen); ok {
		return int(r)
	}
	r := c.eng.Classify(h)
	c.cache.Insert(key, c.gen, int32(r))
	return r
}

// ClassifyBatch classifies hdrs into out through the cache's two-phase
// probe/fill path, classifying only the misses on the wrapped engine (its
// native batch path when it has one) with the cache lock released.
//
//pclass:hotpath
func (c *Cached) ClassifyBatch(hdrs []packet.Header, out []int) {
	c.cache.ClassifyBatchInto(c.gen, hdrs, out, c.missFn)
}

// MultiMatch returns every matching rule index in priority order, straight
// from the wrapped engine.
func (c *Cached) MultiMatch(h packet.Header) []int { return c.eng.MultiMatch(h) }

// NumRules returns the wrapped engine's rule count.
func (c *Cached) NumRules() int { return c.eng.NumRules() }
