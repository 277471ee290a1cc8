package flowcache

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"pktclass/internal/packet"
)

// A batch of 256 copies of one new flow is one engine call of one header:
// the leader's result reaches all 256 outputs, and the other 255 packets
// are counted as misses and as coalesced.
func TestBatchOfOneNewFlowCallsEngineOnce(t *testing.T) {
	forEachTable(t, 1<<10, func(t *testing.T, tb table, nextGen func() uint64) {
		gen := nextGen()
		flow := testHeaders(1, 21)[0]
		hdrs := make([]packet.Header, 256)
		for i := range hdrs {
			hdrs[i] = flow
		}
		out := make([]int, len(hdrs))
		var lens []int
		tb.ClassifyBatchInto(gen, hdrs, out, func(mh []packet.Header, mo []int) {
			lens = append(lens, len(mh))
			for i, h := range mh {
				mo[i] = flowResult(h)
			}
		})
		if len(lens) != 1 || lens[0] != 1 {
			t.Fatalf("engine calls of lengths %v, want one call of length 1", lens)
		}
		for i, r := range out {
			if r != flowResult(flow) {
				t.Fatalf("packet %d: got %d, want the engine's %d", i, r, flowResult(flow))
			}
		}
		if st := tb.Stats(); st.Misses != 256 || st.Coalesced != 255 || st.Hits != 0 {
			t.Fatalf("stats %+v, want 256 misses, 255 coalesced, 0 hits", st)
		}
	})
}

// The batch stamp wraps after 2^32 batches: the wrapping batch clears the
// table, or every slot of a never-used table would look written by it.
// Batches on either side of the wrap each coalesce their own repeats.
func TestCoalescingStampWraps(t *testing.T) {
	p := &prehashed{Private: NewPrivate(1 << 10)}
	flows := testHeaders(8, 24)
	hdrs := make([]packet.Header, 4*len(flows))
	for i := range hdrs {
		hdrs[i] = flows[i%len(flows)]
	}
	out := make([]int, len(hdrs))
	var calls, classified int
	miss := classifyMissesFn(&calls, &classified, 0)
	// Stamp 1 keys these flows' slots; the batch after the wrap reuses it.
	p.ClassifyBatchInto(1, hdrs, out, miss)
	p.scratch.stamp = math.MaxUint32 - 1
	for gen := uint64(2); gen < 6; gen++ { // a new generation: every flow misses
		classified = 0
		p.ClassifyBatchInto(gen, hdrs, out, miss)
		if classified != len(flows) {
			t.Fatalf("stamp %d: engine classified %d packets, want %d", p.scratch.stamp, classified, len(flows))
		}
		for i, h := range hdrs {
			if out[i] != flowResult(h) {
				t.Fatalf("stamp %d packet %d: got %d want %d", p.scratch.stamp, i, out[i], flowResult(h))
			}
		}
	}
	if p.scratch.stamp != 3 {
		t.Fatalf("stamp %d after four batches from 2^32−2, want 3", p.scratch.stamp)
	}
}

// collided holds a Private to the table contract with every prehashed
// value's high word zeroed: every miss of a batch keys the same
// coalescing-table slot, so a lookup walks the whole probe chain.
// Buckets read the low word, so their placement is unchanged.
type collided struct{ prehashed }

func (c *collided) ClassifyBatchInto(gen uint64, hdrs []packet.Header, out []int, classifyMisses func([]packet.Header, []int)) {
	c.hashes = c.hashes[:0]
	for _, h := range hdrs {
		c.hashes = append(c.hashes, h.Hash()&0xffffffff)
	}
	c.ClassifyBatchPrehashedInto(gen, hdrs, c.hashes, out, classifyMisses)
}

// Coalesced batches answer exactly as an uncoalesced reference, which
// asks the engine for every packet on its own: over Cache, Private and a
// Private whose misses all collide in the coalescing table, on bursty
// batches of 1 to 600 packets (the scratch regrows mid-run), with the
// generation bumped between batches and engine results that include the
// no-match result and one too large to store. The engine is a fixed
// function of (flow, generation), as an immutable build is. Every engine
// call carries distinct flows, and the counters add up: hits plus misses
// are the packets, and misses less coalesced are what the engine saw.
func TestCoalescedBatchesMatchUncoalescedReference(t *testing.T) {
	tables := []struct {
		name string
		make func(entries int) table
	}{
		{"Cache", func(n int) table { return New(Config{Entries: n}) }},
		{"Private", func(n int) table { return &prehashed{Private: NewPrivate(n)} }},
		{"PrivateCollided", func(n int) table { return &collided{prehashed{Private: NewPrivate(n)}} }},
	}
	for _, entries := range []int{bucketWays, 64, 1024} {
		for _, tt := range tables {
			t.Run(fmt.Sprintf("%s/entries=%d", tt.name, entries), func(t *testing.T) {
				tb := tt.make(entries)
				rng := rand.New(rand.NewSource(int64(entries)))
				flows := modelFlows(rng, 4*entries)
				answer := make(map[flowGen]int)
				result := func(h packet.Header, gen uint64) int {
					key := flowGen{h, gen}
					r, ok := answer[key]
					if !ok {
						r = modelResults[rng.Intn(len(modelResults))]
						answer[key] = r
					}
					return r
				}
				var gen uint64 = 1
				packets, classified := 0, 0
				for batch := 0; batch < 200; batch++ {
					if rng.Intn(4) == 0 {
						gen++
					}
					// Trains of one flow, one to eight packets long.
					hdrs := make([]packet.Header, 0, 600)
					for n := 1 + rng.Intn(600); len(hdrs) < n; {
						f := flows[rng.Intn(len(flows))]
						for run := 1 + rng.Intn(8); run > 0 && len(hdrs) < n; run-- {
							hdrs = append(hdrs, f)
						}
					}
					got := make([]int, len(hdrs))
					tb.ClassifyBatchInto(gen, hdrs, got, func(mh []packet.Header, mo []int) {
						seen := make(map[packet.Header]bool, len(mh))
						for i, h := range mh {
							if seen[h] {
								t.Fatalf("batch %d: flow %v reached the engine twice", batch, h)
							}
							seen[h] = true
							mo[i] = result(h, gen)
						}
						classified += len(mh)
					})
					for i, h := range hdrs {
						if want := result(h, gen); got[i] != want {
							t.Fatalf("batch %d packet %d: %d, reference %d", batch, i, got[i], want)
						}
					}
					packets += len(hdrs)
				}
				st := tb.Stats()
				if st.Hits+st.Misses != int64(packets) || st.Misses-st.Coalesced != int64(classified) {
					t.Fatalf("stats %+v over %d packets, %d classified by the engine", st, packets, classified)
				}
				if st.Coalesced == 0 {
					t.Fatal("no miss was coalesced")
				}
			})
		}
	}
}

// Concurrent batches through one Cache coalesce independently: each
// batch's scratch, coalescing table and stamp are its own, so goroutines
// sending trains of flows no other batch has seen each see every flow
// reach the engine exactly once and every packet answered with its own
// flow's result.
func TestConcurrentBatchesCoalesceIndependently(t *testing.T) {
	c := New(Config{Entries: 1 << 10})
	const goroutines, rounds, flowsPerBatch, burst = 4, 100, 64, 4
	gen := c.NextGeneration()
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			hdrs := make([]packet.Header, flowsPerBatch*burst)
			out := make([]int, len(hdrs))
			for round := 0; round < rounds; round++ {
				for i := range hdrs {
					f := i / burst
					hdrs[i] = packet.Header{SIP: uint32(g), DIP: uint32(round), SP: uint16(f), DP: 80, Proto: 6}
				}
				rng.Shuffle(len(hdrs), func(i, j int) { hdrs[i], hdrs[j] = hdrs[j], hdrs[i] })
				var err error
				c.ClassifyBatchInto(gen, hdrs, out, func(mh []packet.Header, mo []int) {
					seen := make(map[packet.Header]bool, len(mh))
					for i, h := range mh {
						seen[h] = true
						mo[i] = flowResult(h)
					}
					if len(seen) != len(mh) || len(mh) != flowsPerBatch {
						err = fmt.Errorf("goroutine %d round %d: engine saw %d headers, %d distinct, want %d",
							g, round, len(mh), len(seen), flowsPerBatch)
					}
				})
				if err != nil {
					errs <- err
					return
				}
				for i, h := range hdrs {
					if out[i] != flowResult(h) {
						errs <- fmt.Errorf("goroutine %d round %d packet %d: got %d want %d", g, round, i, out[i], flowResult(h))
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Coalesced != goroutines*rounds*flowsPerBatch*(burst-1) {
		t.Fatalf("coalesced %d, want %d", st.Coalesced, goroutines*rounds*flowsPerBatch*(burst-1))
	}
}

// On the benchmark's cache_pressure traffic shape — 262144 flows under
// Zipf 1.0 in geometric bursts of mean 4, batches of 256, one worker's
// 8192-entry share of the cache — the engine classifies at most 0.3 of
// the packets an uncoalesced cache would hand it, which is every miss.
func TestCoalescingCutsEngineWorkOnBurstyZipf(t *testing.T) {
	flows := testHeaders(1<<18, 22)
	trace, err := packet.ZipfTrace(flows, packet.ZipfTraceConfig{Count: 1 << 18, S: 1.0, MeanBurst: 4, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	c := New(Config{Entries: 1 << 13})
	gen := c.NextGeneration()
	out := make([]int, 256)
	classified := 0
	miss := func(mh []packet.Header, mo []int) {
		classified += len(mh)
		for i, h := range mh {
			mo[i] = flowResult(h)
		}
	}
	for i := 0; i+len(out) <= len(trace); i += len(out) {
		c.ClassifyBatchInto(gen, trace[i:i+len(out)], out, miss)
	}
	st := c.Stats()
	pkts := float64(st.Hits + st.Misses)
	t.Logf("per packet: %.3f misses, %.3f classified by the engine, %.3f coalesced; hit ratio %.3f",
		float64(st.Misses)/pkts, float64(classified)/pkts, float64(st.Coalesced)/pkts, st.HitRate())
	if float64(classified) > 0.3*float64(st.Misses) {
		t.Fatalf("engine classified %d packets of %d misses, want at most 0.3×", classified, st.Misses)
	}
}
