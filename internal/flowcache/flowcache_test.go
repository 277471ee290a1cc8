package flowcache

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
)

func testHeaders(n int, seed int64) []packet.Header {
	rng := rand.New(rand.NewSource(seed))
	out := make([]packet.Header, n)
	for i := range out {
		out[i] = ruleset.RandomHeader(rng)
	}
	return out
}

// table is what Cache and Private have in common; the behaviour tests
// below run once over each, so the locked wrapper and the table it wraps
// are held to one contract.
type table interface {
	Entries() int
	Stats() Stats
	Lookup(key packet.Key, gen uint64) (int32, bool)
	Insert(key packet.Key, gen uint64, result int32)
	ClassifyBatchInto(gen uint64, hdrs []packet.Header, out []int, classifyMisses func([]packet.Header, []int))
}

// forEachTable runs fn as a subtest per implementation. nextGen allocates
// generations 1, 2, 3, ... — from the Cache itself, or from a counter
// standing in for the serving layer's when the table is a Private.
func forEachTable(t *testing.T, entries int, fn func(t *testing.T, tb table, nextGen func() uint64)) {
	t.Run("Cache", func(t *testing.T) {
		c := New(Config{Entries: entries})
		fn(t, c, c.NextGeneration)
	})
	t.Run("Private", func(t *testing.T) {
		var gen uint64
		fn(t, &prehashed{Private: NewPrivate(entries)}, func() uint64 { gen++; return gen })
	})
}

// prehashed holds a Private to the table contract through its one batch
// entry point, ClassifyBatchPrehashedInto, hashing each batch the way the
// steered serving path does. The hash slice grows once and is reused.
type prehashed struct {
	*Private
	hashes []uint64
}

func (p *prehashed) ClassifyBatchInto(gen uint64, hdrs []packet.Header, out []int, classifyMisses func([]packet.Header, []int)) {
	p.hashes = p.hashes[:0]
	for _, h := range hdrs {
		p.hashes = append(p.hashes, h.Hash())
	}
	p.ClassifyBatchPrehashedInto(gen, hdrs, p.hashes, out, classifyMisses)
}

func TestSizingRoundsUp(t *testing.T) {
	c := New(Config{Entries: 1000})
	if got := c.Entries(); got < 1000 {
		t.Fatalf("capacity %d below requested 1000", got)
	}
	// The bucket count must be a power of two for the mask indexing.
	nb := len(c.p.buckets)
	if nb&(nb-1) != 0 {
		t.Fatalf("bucket count %d not a power of two", nb)
	}
	if c.Entries() != nb*bucketWays {
		t.Fatalf("Entries() %d inconsistent with layout", c.Entries())
	}
}

func TestLookupInsertRoundTrip(t *testing.T) {
	// 500 random keys at <7% load: set conflicts deeper than the 8-way
	// associativity are (deterministically, for this seed) absent, so
	// every insert must still be resident.
	forEachTable(t, 1<<13, func(t *testing.T, tb table, nextGen func() uint64) {
		gen := nextGen()
		hdrs := testHeaders(500, 1)
		if _, ok := tb.Lookup(hdrs[0].Key(), gen); ok {
			t.Fatal("hit on empty cache")
		}
		for i, h := range hdrs {
			tb.Insert(h.Key(), gen, int32(i))
		}
		for i, h := range hdrs {
			got, ok := tb.Lookup(h.Key(), gen)
			if !ok || got != int32(i) {
				t.Fatalf("header %d: got (%d,%v), want (%d,true)", i, got, ok, i)
			}
		}
		if st := tb.Stats(); st.Hits != 500 || st.Misses != 1 {
			t.Fatalf("stats after round trip: %+v", st)
		}
	})
}

func TestGenerationMismatchIsMiss(t *testing.T) {
	forEachTable(t, 1<<10, func(t *testing.T, tb table, nextGen func() uint64) {
		g1 := nextGen()
		h := testHeaders(1, 1)[0]
		tb.Insert(h.Key(), g1, 7)
		g2 := nextGen()
		if _, ok := tb.Lookup(h.Key(), g2); ok {
			t.Fatal("hit on a retired generation's entry")
		}
		// The lookup writes nothing: the drop is counted when the reinsert
		// under g2 retires the bucket and empties the g1 entry.
		if sd := tb.Stats().StaleDrops; sd != 0 {
			t.Fatalf("stale drops after the lookup = %d, want 0", sd)
		}
		tb.Insert(h.Key(), g2, 9)
		if sd := tb.Stats().StaleDrops; sd != 1 {
			t.Fatalf("stale drops after the reinsert = %d, want 1", sd)
		}
		if got, ok := tb.Lookup(h.Key(), g2); !ok || got != 9 {
			t.Fatalf("after reinsert: got (%d,%v), want (9,true)", got, ok)
		}
		// The old generation never becomes visible again.
		if _, ok := tb.Lookup(h.Key(), g1); ok {
			t.Fatal("hit under retired generation after overwrite")
		}
	})
}

// An insert under a generation older than the bucket's is not stored: a
// batch still finishing on a retired build must neither evict nor retire
// the entries the live build has cached, and its result is unreachable.
func TestOlderGenerationInsertNotStored(t *testing.T) {
	forEachTable(t, bucketWays, func(t *testing.T, tb table, nextGen func() uint64) {
		g1, g2 := nextGen(), nextGen()
		hdrs := testHeaders(2, 12)
		a, b := hdrs[0].Key(), hdrs[1].Key()
		tb.Insert(a, g2, 5)
		tb.Insert(b, g1, 6)
		if r, ok := tb.Lookup(a, g2); !ok || r != 5 {
			t.Fatalf("live entry after an older insert: (%d,%v), want (5,true)", r, ok)
		}
		if _, ok := tb.Lookup(b, g1); ok {
			t.Fatal("an insert under a retired generation was stored")
		}
		if st := tb.Stats(); st.StaleDrops != 0 || st.Evictions != 0 {
			t.Fatalf("older insert dropped or evicted: %+v", st)
		}
	})
}

// A slot stores results in [-1, maxResult]; a larger one is answered but
// not cached, and it drops the result the flow had stored, so no later hit
// returns the value it superseded.
func TestResultRange(t *testing.T) {
	forEachTable(t, bucketWays, func(t *testing.T, tb table, nextGen func() uint64) {
		gen := nextGen()
		k := testHeaders(1, 13)[0].Key()
		for _, r := range []int32{-1, 0, maxResult} {
			tb.Insert(k, gen, r)
			if got, ok := tb.Lookup(k, gen); !ok || got != r {
				t.Fatalf("result %d: got (%d,%v)", r, got, ok)
			}
		}
		for _, r := range []int32{maxResult + 1, -2} {
			tb.Insert(k, gen, maxResult)
			tb.Insert(k, gen, r)
			if got, ok := tb.Lookup(k, gen); ok {
				t.Fatalf("result %d was cached, or left %d behind", r, got)
			}
		}
		hdrs := testHeaders(1, 13)
		out := make([]int, 1)
		var calls int
		for i := 0; i < 2; i++ {
			tb.ClassifyBatchInto(gen, hdrs, out, func(_ []packet.Header, o []int) { calls++; o[0] = maxResult + 1 })
			if out[0] != maxResult+1 {
				t.Fatalf("batch answered %d, want %d", out[0], maxResult+1)
			}
		}
		if calls != 2 {
			t.Fatalf("an unstorable result was served from the cache (%d engine calls, want 2)", calls)
		}
	})
}

func TestInsertRefreshesInPlace(t *testing.T) {
	c := New(Config{Entries: 1 << 10})
	gen := c.NextGeneration()
	h := testHeaders(1, 2)[0]
	c.Insert(h.Key(), gen, 1)
	c.Insert(h.Key(), gen, 2)
	if got, ok := c.Lookup(h.Key(), gen); !ok || got != 2 {
		t.Fatalf("got (%d,%v), want (2,true)", got, ok)
	}
	if ev := c.Stats().Evictions; ev != 0 {
		t.Fatalf("in-place refresh evicted: %d", ev)
	}
}

func TestClockEvictionUnderPressure(t *testing.T) {
	// Tiny tables, ten times more flows than capacity: CLOCK must evict
	// rather than grow, and every inserted key must remain immediately
	// readable. With a single bucket every insert past the first bucketWays
	// displaces a live entry, so the eviction count is exact.
	for _, entries := range []int{bucketWays, 64} {
		t.Run(fmt.Sprintf("entries=%d", entries), func(t *testing.T) {
			forEachTable(t, entries, func(t *testing.T, tb table, nextGen func() uint64) {
				if tb.Entries() != entries {
					t.Fatalf("capacity %d, want %d", tb.Entries(), entries)
				}
				gen := nextGen()
				hdrs := testHeaders(10*entries, 3)
				for i, h := range hdrs {
					tb.Insert(h.Key(), gen, int32(i))
					if got, ok := tb.Lookup(h.Key(), gen); !ok || got != int32(i) {
						t.Fatalf("insert %d not readable: (%d,%v)", i, got, ok)
					}
				}
				ev := tb.Stats().Evictions
				if ev == 0 {
					t.Fatalf("no evictions after %d inserts into %d entries", len(hdrs), entries)
				}
				if entries == bucketWays && ev != int64(len(hdrs)-bucketWays) {
					t.Fatalf("one bucket: evictions = %d, want %d", ev, len(hdrs)-bucketWays)
				}
			})
		})
	}
}

func TestSecondChanceProtectsHotEntry(t *testing.T) {
	// One bucket's worth of traffic: a repeatedly hit entry must survive a
	// stream of one-shot inserts that overflows its bucket many times over.
	c := New(Config{Entries: bucketWays})
	gen := c.NextGeneration()
	rng := rand.New(rand.NewSource(4))
	hot := ruleset.RandomHeader(rng)
	c.Insert(hot.Key(), gen, 42)
	survived := 0
	const rounds = 200
	for i := 0; i < rounds; i++ {
		if _, ok := c.Lookup(hot.Key(), gen); ok {
			survived++
		}
		c.Insert(ruleset.RandomHeader(rng).Key(), gen, int32(i))
	}
	// Second chance cannot make the hot entry immortal (a full lap of cold
	// inserts between two hits can still take it), but it must survive the
	// large majority of rounds; pure round-robin without ref bits keeps it
	// barely 1/bucketWays of the time.
	if survived < rounds/2 {
		t.Fatalf("hot entry survived only %d/%d rounds", survived, rounds)
	}
}

// flowResult is the deterministic "engine" the batch tests classify
// against: a pure function of the header, so cached and computed results
// are directly comparable.
func flowResult(h packet.Header) int {
	return int(h.SIP^h.DIP)&0xffff ^ int(h.SP) ^ int(h.DP)<<1 ^ int(h.Proto)
}

// classifyMissesFn is flowResult plus tag as a miss callback, counting
// its calls and the packets it classified.
func classifyMissesFn(calls, classified *int, tag int) func([]packet.Header, []int) {
	return func(hdrs []packet.Header, out []int) {
		*calls++
		*classified += len(hdrs)
		for i, h := range hdrs {
			out[i] = flowResult(h) + tag
		}
	}
}

// The batched path must agree with the engine it fronts across generation
// bumps mid-stream: three generations classify the same flows to
// generation-tagged results, so a retired entry served would show. The
// engine sees each missing flow of a batch exactly once: its headers are
// distinct, and the batch's misses are exactly the packets of those flows.
func TestClassifyBatchIntoMatchesEngine(t *testing.T) {
	forEachTable(t, 1<<12, func(t *testing.T, tb table, nextGen func() uint64) {
		const gens, rounds, batchSize = 3, 20, 256
		rng := rand.New(rand.NewSource(5))
		pop := testHeaders(300, 6)
		var calls, classified int
		for g := 0; g < gens; g++ {
			gen := nextGen()
			tag := int(gen) * 1_000_000
			engine := classifyMissesFn(&calls, &classified, tag)
			for round := 0; round < rounds; round++ {
				// Heavy key reuse: draw each batch from the small population.
				batch := make([]packet.Header, batchSize)
				for i := range batch {
					batch[i] = pop[rng.Intn(len(pop))]
				}
				missing := make(map[packet.Header]bool)
				miss := func(hdrs []packet.Header, out []int) {
					for _, h := range hdrs {
						if missing[h] {
							t.Fatalf("gen %d round %d: flow %v reached the engine twice in one batch", gen, round, h)
						}
						missing[h] = true
					}
					engine(hdrs, out)
				}
				out := make([]int, len(batch))
				before := tb.Stats().Misses
				tb.ClassifyBatchInto(gen, batch, out, miss)
				missed := 0
				for i, h := range batch {
					if want := flowResult(h) + tag; out[i] != want {
						t.Fatalf("gen %d round %d packet %d: got %d want %d", gen, round, i, out[i], want)
					}
					if missing[h] {
						missed++
					}
				}
				if got := tb.Stats().Misses - before; got != int64(missed) {
					t.Fatalf("gen %d round %d: %d misses, but %d packets belong to the %d flows the engine saw",
						gen, round, got, missed, len(missing))
				}
			}
		}
		st := tb.Stats()
		if st.Generation != gens {
			t.Fatalf("generation = %d, want %d", st.Generation, gens)
		}
		if st.Hits+st.Misses != gens*rounds*batchSize {
			t.Fatalf("lookup accounting: %+v", st)
		}
		if st.Misses != int64(classified)+st.Coalesced {
			t.Fatalf("misses %d != packets classified by engine %d + coalesced %d", st.Misses, classified, st.Coalesced)
		}
		if st.Coalesced == 0 {
			t.Fatal("no batch repeated a missing flow: the followers went unchecked")
		}
		// 300 flows into 20×256 lookups per generation: the steady state
		// must be hit-dominated.
		if st.HitRate() < 0.9 {
			t.Fatalf("hit rate %.2f, want >= 0.9", st.HitRate())
		}
		if calls > gens*rounds {
			t.Fatalf("classifyMisses called %d times for %d batches", calls, gens*rounds)
		}
	})
}

func TestClassifyBatchIntoAllHitsSkipsEngine(t *testing.T) {
	forEachTable(t, 1<<12, func(t *testing.T, tb table, nextGen func() uint64) {
		gen := nextGen()
		// Every flow appears four times, so the cold batch also carries
		// repeated misses of one flow.
		flows := testHeaders(64, 7)
		hdrs := make([]packet.Header, 4*len(flows))
		for i := range hdrs {
			hdrs[i] = flows[i%len(flows)]
		}
		out := make([]int, len(hdrs))
		var calls, classified int
		miss := classifyMissesFn(&calls, &classified, 0)
		tb.ClassifyBatchInto(gen, hdrs, out, miss)
		if calls != 1 {
			t.Fatalf("cold batch: %d engine calls, want 1", calls)
		}
		tb.ClassifyBatchInto(gen, hdrs, out, miss)
		if calls != 1 {
			t.Fatalf("warm batch still called the engine (%d calls)", calls)
		}
		for i, h := range hdrs {
			if out[i] != flowResult(h) {
				t.Fatalf("warm packet %d: got %d want %d", i, out[i], flowResult(h))
			}
		}
	})
}

func TestClassifyBatchIntoSmallBatches(t *testing.T) {
	// The empty batch and batches far smaller than the bucket count.
	c := New(Config{Entries: 1 << 10})
	gen := c.NextGeneration()
	var calls, classified int
	miss := classifyMissesFn(&calls, &classified, 0)
	for _, n := range []int{0, 1, 2, 3, 5} {
		hdrs := testHeaders(n, int64(100+n))
		out := make([]int, n)
		c.ClassifyBatchInto(gen, hdrs, out, miss)
		for i, h := range hdrs {
			if out[i] != flowResult(h) {
				t.Fatalf("n=%d packet %d wrong", n, i)
			}
		}
	}
}

// The CI allocation gate for both batch paths: a mixed hit/miss steady
// state (the table is smaller than the flow set, so every batch probes,
// calls the engine and inserts) must not allocate. Every flow arrives
// twice in a row, so every batch also coalesces repeated misses.
func TestClassifyBatchIntoZeroAllocSteadyState(t *testing.T) {
	forEachTable(t, 256, func(t *testing.T, tb table, nextGen func() uint64) {
		if _, pooled := tb.(*Cache); pooled && raceEnabled {
			t.Skip("sync.Pool drops puts under -race; zero-alloc gate runs in normal builds")
		}
		gen := nextGen()
		flows := testHeaders(512, 8)
		hdrs := make([]packet.Header, 2*len(flows))
		for i := range hdrs {
			hdrs[i] = flows[i/2]
		}
		out := make([]int, len(hdrs))
		misses := 0
		miss := func(mh []packet.Header, mo []int) {
			misses += len(mh)
			for i, h := range mh {
				mo[i] = flowResult(h)
			}
		}
		tb.ClassifyBatchInto(gen, hdrs, out, miss) // warm the scratch
		misses = 0
		allocs := testing.AllocsPerRun(100, func() {
			tb.ClassifyBatchInto(gen, hdrs, out, miss)
		})
		if allocs != 0 {
			t.Fatalf("batch path allocates %.1f/op in steady state", allocs)
		}
		if misses == 0 {
			t.Fatal("steady state never missed: the fill phase went ungated")
		}
		if tb.Stats().Coalesced == 0 {
			t.Fatal("steady state never coalesced: the follower path went ungated")
		}
	})
}

func TestConcurrentMixedGenerations(t *testing.T) {
	// Readers on distinct generations share the cache concurrently; each
	// must only ever see its own generation's results.
	c := New(Config{Entries: 1 << 10})
	pop := testHeaders(200, 9)
	const readers = 8
	done := make(chan error, readers)
	for r := 0; r < readers; r++ {
		gen := c.NextGeneration()
		tag := int(gen) * 1_000_000
		go func(gen uint64, tag int) {
			rng := rand.New(rand.NewSource(int64(tag)))
			miss := func(mh []packet.Header, mo []int) {
				for i, h := range mh {
					mo[i] = flowResult(h) + tag
				}
			}
			batch := make([]packet.Header, 64)
			out := make([]int, len(batch))
			for round := 0; round < 50; round++ {
				for i := range batch {
					batch[i] = pop[rng.Intn(len(pop))]
				}
				c.ClassifyBatchInto(gen, batch, out, miss)
				for i, h := range batch {
					if out[i] != flowResult(h)+tag {
						done <- fmt.Errorf("generation %d saw result %d, want %d: cross-generation leak",
							gen, out[i], flowResult(h)+tag)
						return
					}
				}
			}
			done <- nil
		}(gen, tag)
	}
	for r := 0; r < readers; r++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// The wrapper's one lock must be released across the engine call: a miss
// callback that itself calls Lookup and Insert on the same Cache deadlocks
// if either phase leaks it, and a second goroutine batching at another
// generation must be able to interleave with both phases.
func TestMissCallbackReentersCache(t *testing.T) {
	c := New(Config{Entries: 1 << 8})
	pop := testHeaders(400, 10)
	const rounds = 200
	run := func(gen uint64, reenter bool) error {
		tag := int(gen) * 1_000_000
		rng := rand.New(rand.NewSource(int64(gen)))
		miss := func(mh []packet.Header, mo []int) {
			for i, h := range mh {
				mo[i] = flowResult(h) + tag
				if !reenter {
					continue
				}
				k := h.Key()
				if r, ok := c.Lookup(k, gen); ok && int(r) != mo[i] {
					t.Errorf("generation %d: re-entrant lookup got %d want %d", gen, r, mo[i])
				}
				c.Insert(k, gen, int32(mo[i]))
			}
		}
		batch := make([]packet.Header, 64)
		out := make([]int, len(batch))
		for round := 0; round < rounds; round++ {
			for i := range batch {
				batch[i] = pop[rng.Intn(len(pop))]
			}
			c.ClassifyBatchInto(gen, batch, out, miss)
			for i, h := range batch {
				if want := flowResult(h) + tag; out[i] != want {
					return fmt.Errorf("generation %d round %d: got %d want %d", gen, round, out[i], want)
				}
			}
		}
		return nil
	}
	g1, g2 := c.NextGeneration(), c.NextGeneration()
	done := make(chan error, 2)
	go func() { done <- run(g1, true) }()
	go func() { done <- run(g2, false) }()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("deadlock: a phase lock is held across the miss callback")
		}
	}
}
