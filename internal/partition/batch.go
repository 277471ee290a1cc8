package partition

import (
	"pktclass/internal/core"
	"pktclass/internal/packet"
)

// batchScratch is one lookup's reusable workspace, recycled through the
// engine's pool.
//
//pclass:pooled
type batchScratch struct {
	// addrs holds the current packet's stage addresses at stride k (k = 0:
	// none extracted yet; a recycled workspace keeps the last k walked),
	// and cand a StrideBV part's candidate words. addrs has room for any
	// stride's stages (k >= 1), so a workspace fits every engine sharing
	// the pool.
	addrs [packet.W]int
	k     int
	cand  []uint64
}

// getBatchScratch fetches the workspace, or builds one on a cold pool miss
// or when a recycled one is too small for this engine's parts.
//
//pclass:pooled
//pclass:hotpath
func (e *Engine) getBatchScratch() *batchScratch {
	sc, ok := e.scratch.Get().(*batchScratch)
	if !ok || len(sc.cand) < e.candWords {
		sc = e.newBatchScratch()
	}
	return sc
}

// newBatchScratch builds the workspace a cold pool miss falls back to;
// the steady state always hits the pool (gated at 0 allocs/op by the
// batch benchmarks).
func (e *Engine) newBatchScratch() *batchScratch {
	return &batchScratch{cand: make([]uint64, e.candWords)}
}

// ClassifyBatch classifies hdrs into out (the core.BatchClassifier fast
// path): each packet runs first, the same per-packet loop Classify runs,
// on one recycled workspace. Partitions hold disjoint rule subsets with
// order-preserving local-to-global maps, so the lowest global index across
// partitions is exactly the flat engine's first match. Safe for concurrent
// use; allocation-free in steady state once the recycled scratch has
// warmed up.
//
//pclass:hotpath
func (e *Engine) ClassifyBatch(hdrs []packet.Header, out []int) {
	if len(e.parts) == 1 {
		// One part holds every rule in order: local index == global index.
		core.ClassifyBatchInto(e.parts[0].eng, hdrs, out)
		return
	}
	sc := e.getBatchScratch()
	for i, h := range hdrs {
		out[i] = result(e.first(h, sc))
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
