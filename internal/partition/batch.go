package partition

import (
	"math"

	"pktclass/internal/core"
	"pktclass/internal/packet"
)

// The batch path runs on the calling goroutine and owns no threads: the
// serving layer above already gives every worker a core, so the partition
// layer's job is only to search the parts each packet steers to and merge
// the winners. The hardware searches the P sub-engines in parallel; in
// software that parallelism is the caller's (internal/serve steers batches
// across workers), not this package's.

// batchScratch is one lookup's reusable workspace, recycled through the
// engine's pool.
//
//pclass:pooled
type batchScratch struct {
	// addrs holds a packet's stage addresses and cand a part's candidate
	// words, for the strided lookup. addrs has room for any stride's
	// stages (k >= 1), so a workspace fits every engine sharing the pool.
	addrs [packet.W]int
	cand  []uint64
	// The rest serves the generic batch lookup.
	// hdrs/idx hold the batch counting-sorted by bucket part: part pi's
	// headers and their positions in the caller's batch occupy
	// [start[pi], start[pi+1]). A header steers to at most one DIP and one
	// SIP bucket, so 2·batch entries always suffice. res is parallel to
	// hdrs; the always-searched parts reuse its head for the whole batch.
	hdrs []packet.Header
	idx  []int32
	res  []int
	// start has one offset per part plus the end sentinel; fill is the
	// placement cursor of the sort.
	start, fill []int32
	best        []int32
}

// getBatchScratch fetches (or, on a cold pool miss, builds) the workspace
// and sizes it for this engine's lookup and a batch of batch packets on the
// generic one (0 on the strided one, which needs no per-batch arrays).
//
//pclass:pooled
//pclass:hotpath
func (e *Engine) getBatchScratch(batch int) *batchScratch {
	sc, ok := e.scratch.Get().(*batchScratch)
	if !ok {
		sc = e.newBatchScratch()
	}
	if cap(sc.best) < batch || len(sc.cand) < e.candWords {
		sc.grow(batch, e.candWords)
	}
	sc.best = sc.best[:batch]
	return sc
}

// newBatchScratch builds the workspace a cold pool miss falls back to;
// the steady state always hits the pool (gated at 0 allocs/op by the
// batch benchmarks).
func (e *Engine) newBatchScratch() *batchScratch {
	return &batchScratch{
		start: make([]int32, len(e.parts)+1),
		fill:  make([]int32, len(e.parts)),
	}
}

// grow resizes the per-batch arrays to the largest batch seen and the
// candidate workspace to the largest part walk; they are reused forever
// after.
func (sc *batchScratch) grow(batch, candWords int) {
	if cap(sc.best) < batch {
		sc.hdrs = make([]packet.Header, 2*batch)
		sc.idx = make([]int32, 2*batch)
		sc.res = make([]int, 2*batch)
		sc.best = make([]int32, batch)
	}
	if len(sc.cand) < candWords {
		sc.cand = make([]uint64, candWords)
	}
}

// ClassifyBatch classifies hdrs into out (the core.BatchClassifier fast
// path). On the strided lookup each packet runs first: one stride
// extraction, then a priority-bounded walk of every part it steers to.
// Otherwise the batch is counting-sorted by bucket part, each non-empty
// part searches its contiguous share as one sub-batch, the always-searched
// parts take the whole batch, and every part's winners are min-merged by
// global rule index as soon as it returns. Partitions hold disjoint rule
// subsets with order-preserving local-to-global maps, so the lowest
// global index across partitions is exactly the flat engine's first
// match. Safe for concurrent use; allocation-free in steady state once
// the recycled scratch has warmed up.
//
//pclass:hotpath
func (e *Engine) ClassifyBatch(hdrs []packet.Header, out []int) {
	if len(e.parts) == 1 {
		// One part holds every rule in order: local index == global index.
		core.ClassifyBatchInto(e.parts[0].eng, hdrs, out)
		return
	}
	if e.stride > 0 {
		sc := e.getBatchScratch(0)
		for i, h := range hdrs {
			out[i] = result(e.first(h, sc))
		}
		e.scratch.Put(sc)
		return
	}
	sc := e.getBatchScratch(len(hdrs))
	best := sc.best
	for i := range best {
		best[i] = math.MaxInt32
	}

	if e.splitter == PrefixSplit {
		start, fill := sc.start, sc.fill
		clear(start)
		for _, h := range hdrs {
			dip, sip := e.steer(h)
			if dip >= 0 {
				start[dip+1]++
			}
			if sip >= 0 {
				start[sip+1]++
			}
		}
		for pi := range fill {
			start[pi+1] += start[pi]
			fill[pi] = start[pi]
		}
		for i, h := range hdrs {
			dip, sip := e.steer(h)
			if dip >= 0 {
				sc.hdrs[fill[dip]], sc.idx[fill[dip]] = h, int32(i)
				fill[dip]++
			}
			if sip >= 0 {
				sc.hdrs[fill[sip]], sc.idx[fill[sip]] = h, int32(i)
				fill[sip]++
			}
		}
		for pi := range e.parts {
			lo, hi := start[pi], start[pi+1]
			if lo == hi {
				continue
			}
			p, res := &e.parts[pi], sc.res[lo:hi]
			core.ClassifyBatchInto(p.eng, sc.hdrs[lo:hi], res)
			for t, i := range sc.idx[lo:hi] {
				if l := res[t]; l >= 0 && p.global[l] < best[i] {
					best[i] = p.global[l]
				}
			}
		}
	}
	// The always-searched parts take the whole batch, so their results are
	// already in batch order.
	for _, pi := range e.always {
		p, res := &e.parts[pi], sc.res[:len(hdrs)]
		core.ClassifyBatchInto(p.eng, hdrs, res)
		for i, l := range res {
			if l >= 0 && p.global[l] < best[i] {
				best[i] = p.global[l]
			}
		}
	}

	for i, g := range best {
		out[i] = result(g)
	}
	e.scratch.Put(sc)
}

// PoolSize reports 0: the partition layer owns no goroutines.
//
// Deprecated: kept only because the frozen benchmark/ module still reads
// it; drop it together with the partition.pool_size row.
func PoolSize() int { return 0 }

// InlineFallbacks reports 0: there is no pool to fall back from.
//
// Deprecated: kept only because the frozen benchmark/ module still reads
// it; drop it together with the partition.inline_fallbacks row.
func InlineFallbacks() int64 { return 0 }
