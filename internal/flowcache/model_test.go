package flowcache

import (
	"fmt"
	"math/rand"
	"testing"

	"pktclass/internal/packet"
)

// oracleEntry and oracleBucket are the per-entry-generation bucket the
// slot layout replaced, kept as the model the bucket is held to: 32-byte
// entries each tagged with the generation that stored it, a lookup that
// drops a same-flow entry of a retired generation, and an insert that
// reclaims the first empty or retired slot before the CLOCK victim.
type oracleEntry struct {
	hi, lo uint64
	gen    uint64
	result int32
	ref    bool
}

type oracleBucket struct {
	hand    uint8
	entries [bucketWays]oracleEntry
}

func (b *oracleBucket) lookup(hi, lo, gen uint64) (int32, bool) {
	for i := range b.entries {
		e := &b.entries[i]
		if e.hi == hi && e.lo == lo && e.gen != 0 {
			if e.gen == gen {
				e.ref = true
				return e.result, true
			}
			e.gen = 0
			return 0, false
		}
	}
	return 0, false
}

func (b *oracleBucket) insert(hi, lo, gen uint64, result int32) (evicted bool) {
	victim := -1
	for i := range b.entries {
		e := &b.entries[i]
		switch {
		case e.gen == 0:
			if victim < 0 {
				victim = i
			}
		case e.hi == hi && e.lo == lo:
			if e.gen != gen {
				e.ref = false
			}
			e.gen, e.result = gen, result
			return false
		case e.gen != gen && victim < 0:
			victim = i
		}
	}
	if victim < 0 {
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
	b.entries[victim] = oracleEntry{hi: hi, lo: lo, gen: gen, result: result}
	return evicted
}

// oracle is a table of oracle buckets addressed like Private, with the one
// rule the slot layout adds: a result it cannot store is not inserted.
type oracle struct {
	buckets   []oracleBucket
	evictions int64
}

func (o *oracle) bucket(hi, lo uint64) *oracleBucket {
	return &o.buckets[packet.WordsHash(hi, lo)&uint64(len(o.buckets)-1)]
}

// classifyBatchInto is ClassifyBatchInto's probe, miss call and fill over
// the oracle buckets; it returns the batch's hits.
func (o *oracle) classifyBatchInto(gen uint64, hdrs []packet.Header, out []int, classifyMisses func([]packet.Header, []int)) int {
	var missIdx []int
	var missHdrs []packet.Header
	for i, h := range hdrs {
		hi, lo := h.Words()
		if r, ok := o.bucket(hi, lo).lookup(hi, lo, gen); ok {
			out[i] = int(r)
			continue
		}
		missIdx = append(missIdx, i)
		missHdrs = append(missHdrs, h)
	}
	if len(missHdrs) == 0 {
		return len(hdrs)
	}
	missOut := make([]int, len(missHdrs))
	classifyMisses(missHdrs, missOut)
	for j, i := range missIdx {
		out[i] = missOut[j]
		if missOut[j] < -1 || missOut[j] > maxResult {
			continue
		}
		hi, lo := hdrs[i].Words()
		if o.bucket(hi, lo).insert(hi, lo, gen, int32(missOut[j])) {
			o.evictions++
		}
	}
	return len(hdrs) - len(missHdrs)
}

// modelResults are the results the model engines answer with: the
// no-match result, small rules, the largest storable result and the
// smallest that is not stored.
var modelResults = []int{-1, 0, 1, 2, 7, maxResult, maxResult + 1}

// modelFlows returns n distinct flows.
func modelFlows(rng *rand.Rand, n int) []packet.Header {
	seen := make(map[packet.Header]bool, n)
	flows := make([]packet.Header, 0, n)
	for len(flows) < n {
		h := packet.Header{SIP: rng.Uint32(), DIP: rng.Uint32(), SP: uint16(rng.Intn(4)), DP: 80, Proto: uint8(rng.Intn(3))}
		if !seen[h] {
			seen[h] = true
			flows = append(flows, h)
		}
	}
	return flows
}

// Under non-decreasing generations — the serving layer's only pattern —
// the bucket answers exactly as the per-entry-generation bucket did: the
// same hits in every batch, the same results and the same evictions, on
// caches of one to eight buckets under flow sets one to four times their
// capacity. The engine is a fixed function of (flow, generation), as an
// immutable build is.
func TestBucketMatchesPerEntryGenerationModel(t *testing.T) {
	for _, nb := range []int{1, 2, 4, 8} {
		for _, load := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("buckets=%d/load=%d", nb, load), func(t *testing.T) {
				forEachTable(t, nb*bucketWays, func(t *testing.T, tb table, nextGen func() uint64) {
					// One table and one model across every seed's flows, so
					// later seeds start on buckets the earlier ones retired.
					o := &oracle{buckets: make([]oracleBucket, nb)}
					for seed := int64(0); seed < 25; seed++ {
						rng := rand.New(rand.NewSource(seed*131 + int64(nb*load)))
						flows := modelFlows(rng, load*nb*bucketWays)
						answer := make(map[flowGen]int)
						engine := func(gen uint64) func([]packet.Header, []int) {
							return func(hdrs []packet.Header, out []int) {
								for i, h := range hdrs {
									key := flowGen{h, gen}
									r, ok := answer[key]
									if !ok {
										r = modelResults[rng.Intn(len(modelResults))]
										answer[key] = r
									}
									out[i] = r
								}
							}
						}
						gen := nextGen()
						for batch := 0; batch < 60; batch++ {
							if rng.Intn(8) == 0 {
								gen = nextGen()
							}
							hdrs := make([]packet.Header, 1+rng.Intn(3*bucketWays))
							for i := range hdrs {
								hdrs[i] = flows[rng.Intn(len(flows))]
							}
							got, want := make([]int, len(hdrs)), make([]int, len(hdrs))
							before := tb.Stats().Hits
							tb.ClassifyBatchInto(gen, hdrs, got, engine(gen))
							hits := tb.Stats().Hits - before
							wantHits := o.classifyBatchInto(gen, hdrs, want, engine(gen))
							if hits != int64(wantHits) {
								t.Fatalf("seed %d batch %d: %d hits, model %d", seed, batch, hits, wantHits)
							}
							for i := range got {
								if got[i] != want[i] {
									t.Fatalf("seed %d batch %d packet %d: result %d, model %d", seed, batch, i, got[i], want[i])
								}
							}
						}
						if ev := tb.Stats().Evictions; ev != o.evictions {
							t.Fatalf("seed %d: %d evictions, model %d", seed, ev, o.evictions)
						}
					}
				})
			})
		}
	}
}

// With generations going backwards and Inserts that no lookup preceded,
// the bucket no longer answers as the model did, but it stays safe: every
// hit — through a batch or Lookup — returns the last result inserted for
// that flow under that generation, never one from another generation, and
// never a result an insert replaced with one it could not store.
func TestBucketSafeUnderArbitraryGenerations(t *testing.T) {
	const unset = -99 // no engine answers it
	for _, nb := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("buckets=%d", nb), func(t *testing.T) {
			forEachTable(t, nb*bucketWays, func(t *testing.T, tb table, _ func() uint64) {
				hits := 0
				for seed := int64(0); seed < 40; seed++ {
					rng := rand.New(rand.NewSource(seed + 977*int64(nb)))
					flows := modelFlows(rng, (1+rng.Intn(4))*nb*bucketWays)
					last := make(map[flowGen]int) // the last result inserted
					check := func(h packet.Header, gen uint64, r int, where string) {
						hits++
						if want, ok := last[flowGen{h, gen}]; !ok || r != want {
							t.Fatalf("seed %d: %s hit %v at generation %d with %d; last inserted (%d, %v)", seed, where, h, gen, r, want, ok)
						}
					}
					pick := func() packet.Header { return flows[rng.Intn(len(flows))] }
					for step := 0; step < 300; step++ {
						gen := uint64(1 + rng.Intn(6))
						switch rng.Intn(3) {
						case 0:
							h, r := pick(), modelResults[rng.Intn(len(modelResults))]
							tb.Insert(h.Key(), gen, int32(r))
							last[flowGen{h, gen}] = r
						case 1:
							h := pick()
							if r, ok := tb.Lookup(h.Key(), gen); ok {
								check(h, gen, int(r), "Lookup")
							}
						default:
							hdrs := make([]packet.Header, 1+rng.Intn(2*bucketWays))
							out := make([]int, len(hdrs))
							for i := range hdrs {
								hdrs[i], out[i] = pick(), unset
							}
							// The probe has written the hits and nothing else
							// when the misses reach the engine; they are
							// checked before the batch's own inserts count.
							checkHits := func() {
								for i, h := range hdrs {
									if out[i] != unset {
										check(h, gen, out[i], "batch")
									}
								}
							}
							called := false
							tb.ClassifyBatchInto(gen, hdrs, out, func(mh []packet.Header, mo []int) {
								called = true
								checkHits()
								for i, h := range mh {
									mo[i] = modelResults[rng.Intn(len(modelResults))]
									last[flowGen{h, gen}] = mo[i]
								}
							})
							if !called {
								checkHits()
							}
						}
					}
				}
				if hits == 0 {
					t.Fatal("no hit was checked")
				}
			})
		})
	}
}

// flowGen keys a model's answers and inserts by flow and generation.
type flowGen struct {
	h   packet.Header
	gen uint64
}
