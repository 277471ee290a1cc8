package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"pktclass/internal/bitvec"
	"pktclass/internal/core"
	"pktclass/internal/flowcache"
	"pktclass/internal/obsv"
	"pktclass/internal/packet"
	"pktclass/internal/partition"
	"pktclass/internal/penc"
	"pktclass/internal/serve"
	"pktclass/internal/stridebv"
	"pktclass/internal/tcam"
	"pktclass/internal/update"
)

const (
	handPackets = 1 << 18 // packets pass B warms on, and then measures on
	blockSize   = 256     // keys per sampled kernel span
	blocks      = 64      // sampled kernel spans per kernel
	handSwaps   = 200     // op batches pass B lowers by hand on churn
	spanCap     = 1 << 21 // spans the recorder holds (64 MiB)
)

// runTraced is the separate traced run that produces the per-layer metrics.
// It keeps one batch in flight (one client), so every engine span belongs to
// the root span in flight and attribution is exact. Its passes share d:
//
//	B: the layers composed by hand, single-threaded, on the same trace;
//	U/A: one service whose engines are wrapped in a span decorator, driven
//	   in four alternating windows with the recorder off (U, the untraced
//	   1-client baseline) and on (A, the spans); alternating on one service
//	   keeps machine drift and memory placement out of the overhead figure;
//	O: the plain service with serve's own obsv.Obs histograms on, driven
//	   through the asynchronous Submit so queue wait is observed, and with
//	   the updater on churn.
//
// On churn U and A run without the updater — a wrapped engine would defeat
// update.ApplyDeltasToEngine's type switch — so they decompose the read
// side, and pass O and pass B's hand-lowered swaps cover the writes.
func runTraced(sp spec, seed int64, d time.Duration, outDir string) (*result, error) {
	m := make(map[string]float64, len(perLayer))
	res := &result{Workload: sp.name, Metrics: m}
	quiet := sp
	quiet.churn = false // same stack, no updater

	in := sp.genRules(seed)
	rec := newRecorder(spanCap, sp.engine == "part-stridebv")
	svc, _, err := sp.coldStart(in, seed, stackOpts{wrap: rec.wrap})
	if err != nil {
		return nil, err
	}
	defer closeService(svc)
	if err := sp.genTraffic(in, seed); err != nil {
		return nil, err
	}
	res.Digest = in.digest()
	count := func(w *window, warmFailed int64) {
		res.Attempted += w.calls + w.swaps
		res.Failed += w.failed + warmFailed
	}

	// Pass B goes first into the recorder so the trace file, which keeps
	// the first spans, holds every hand-composed layer.
	if err := sp.handPass(in, seed, rec, m); err != nil {
		return nil, err
	}
	handEnd := rec.count()

	// Passes U and A.
	l := newLoad(quiet, in, svc, 1, rec)
	wf := l.warm()
	var wu, wa window
	for i := 0; i < 2; i++ {
		wu.add(l.measure(d / 8))
		if i == 0 {
			svc.ImbalanceIndex() // baseline sample: the index below covers traced traffic only
		}
		rec.on.Store(true)
		wa.add(l.measure(d / 8))
		rec.on.Store(false)
	}
	count(&wu, wf)
	count(&wa, 0)
	m["serve.imbalance_index"] = svc.ImbalanceIndex()
	slices.Sort(wu.lat)
	m["serve.batch_p99_us"] = quantile(wu.lat, 0.99) / 1e3
	m["serve.allocs_per_batch"] = float64(wu.mallocs) / float64(wu.calls)
	m["bench.gc_cycles"] = float64(wu.gcCycles)
	m["bench.trace_overhead_frac"] = (wa.nsPerPkt() - wu.nsPerPkt()) / wu.nsPerPkt()
	a := rec.sum(handEnd, rec.count())
	b := rec.sum(0, handEnd)
	pkts := float64(max(a.n[lServe], 1))
	m["serve.self_ns_per_pkt"] = float64(a.serveSelf) / pkts
	m["stridebv.classify_ns_per_pkt"] = a.perPkt(lStrideBV)
	if sp.engine == "part-stridebv" {
		m["stridebv.classify_ns_per_pkt"] = a.perPkt(lSub)
		m["partition.classify_ns_per_pkt"] = a.perPkt(lPartition)
		m["partition.self_ns_per_pkt"] = float64(a.partSelf) / pkts
		m["partition.subcalls_per_batch"] = float64(a.calls[lSub]) / float64(max(a.calls[lServe], 1))
		m["partition.parts"] = float64(bare(svc).(*partition.Engine).NumParts())
		m["partition.pool_size"] = float64(partition.PoolSize())
		m["partition.inline_fallbacks"] = float64(partition.InlineFallbacks())
	}
	m["tcam.classify_ns_per_pkt"] = a.perPkt(lTCAM)
	m["packet.key_hash_ns_per_pkt"] = b.perPkt(lKeyHash)
	m["packet.strides_ns_per_pkt"] = b.perPkt(lStrides)
	m["stridebv.match_vector_ns_per_pkt"] = b.perPkt(lMatchVector)
	m["penc.encode_ns_per_pkt"] = b.perPkt(lPenc)
	m["core.linear_ns_per_pkt"] = b.perPkt(lLinear)
	m["flowcache.self_ns_per_pkt"] = float64(b.cacheSelf) / float64(max(b.n[lFlowcache], 1))
	m["serve.residual_ns_per_pkt"] = m["serve.self_ns_per_pkt"] - m["packet.key_hash_ns_per_pkt"] - m["flowcache.self_ns_per_pkt"]
	m["update.apply_to_ruleset_us_per_swap"] = b.perPkt(lApplyRuleSet) / 1e3
	m["update.deltas_us_per_swap"] = b.perPkt(lDeltas) / 1e3
	m["update.apply_deltas_us_per_swap"] = b.perPkt(lApplyDeltas) / 1e3
	m["update.verify_scoped_us_per_swap"] = b.perPkt(lVerifyScoped) / 1e3

	// Exact counts and the cost models they feed.
	switch e := bare(svc).(type) {
	case *stridebv.Engine:
		words := float64(e.Stages() * ((e.NumEntries() + 63) / 64))
		m["stridebv.words_per_pkt"] = words
		m["stridebv.ns_per_word"] = m["stridebv.classify_ns_per_pkt"] / words
		m["stridebv.memory_bits"] = float64(e.MemoryBits())
	case *tcam.Behavioral:
		m["tcam.entries"] = float64(e.NumEntries())
		m["tcam.ns_per_entry"] = m["tcam.classify_ns_per_pkt"] / float64(e.NumEntries())
	}

	// Pass O.
	obs := obsv.NewObs(nil, nil)
	svcO, st, err := sp.coldStart(in, seed, stackOpts{obs: obs})
	if err != nil {
		return nil, err
	}
	defer closeService(svcO)
	// The set-up split comes from this plain cold start, the process's
	// second, so first-touch page faults are not billed to a layer.
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	built := st.build.expand.Load() + st.build.engine.Load() + st.build.partition.Load()
	m["ruleset.parse_ms"] = ms(int64(st.parse))
	m["ruleset.expand_ms"] = ms(st.build.expand.Load())
	m["ruleset.expansion_factor"] = in.rs.ExpansionFactor()
	m["serve.new_ms"] = ms(int64(st.newSvc) - built)
	m["partition.build_ms"] = ms(st.build.partition.Load())
	if sp.engine == "tcam" {
		m["tcam.build_ms"] = ms(st.build.engine.Load())
	} else {
		m["stridebv.build_ms"] = ms(st.build.engine.Load())
	}
	lo := newLoad(sp, in, svcO, 1, nil)
	lo.clients[0].async = true
	wf = lo.warm()
	c0, _ := svcO.CacheStats()
	busy0 := obs.ClassifyBatch.Snapshot().Sum
	wo := lo.measure(d / 4)
	count(wo, wf)
	m["serve.queue_wait_p50_us"] = float64(obs.SubmitWait.Snapshot().Quantile(0.5)) / 1e3
	m["serve.scatter_p50_us"] = float64(obs.SteerScatter.Snapshot().Quantile(0.5)) / 1e3
	m["serve.worker_busy_frac"] = float64(obs.ClassifyBatch.Snapshot().Sum-busy0) / float64(workers) / float64(wo.wall)
	if c1, ok := svcO.CacheStats(); ok {
		kpkt := float64(wo.pkts) / 1e3
		m["flowcache.hit_ratio"] = float64(c1.Hits-c0.Hits) / float64(max(c1.Hits-c0.Hits+c1.Misses-c0.Misses, 1))
		m["flowcache.evictions_per_kpkt"] = float64(c1.Evictions-c0.Evictions) / kpkt
		m["flowcache.stale_drops_per_kpkt"] = float64(c1.StaleDrops-c0.StaleDrops) / kpkt
		m["flowcache.bytes_per_entry"] = cacheBytesPerEntry()
	}
	if sp.churn {
		a, f := lo.verifyAfter(seed + 7)
		res.Attempted += a
		res.Failed += f
		c := svcO.Counters()
		m["update.incremental_swaps"] = float64(c.IncrementalSwaps)
		m["update.fallbacks"] = float64(c.IncrementalFallbacks)
		m["update.rollbacks"] = float64(c.IncrementalRollbacks + c.FailedSwaps)
		m["update.swap_p50_us"] = quantile(wo.swap, 0.50) / 1e3
		m["update.swap_p99_us"] = quantile(wo.swap, 0.99) / 1e3
		m["update.late_p99_ms"] = quantile(wo.late, 0.99) / 1e6
	}

	for _, pm := range perLayer {
		if _, ok := m[pm.name]; !ok {
			m[pm.name] = 0 // the layer is not in this workload's stack
		}
	}
	return res, rec.write(outDir, sp.name)
}

// handPass is pass B: the layers the service composes, called by hand on
// one goroutine over the same trace — key hash and steer, then per worker
// the private cache with the engine as its miss callback (or the engine
// alone with the cache off) — followed by sampled spans of the kernels and,
// on churn, of the four steps of an incremental swap.
func (sp spec) handPass(in *inputs, seed int64, rec *recorder, m map[string]float64) error {
	t0 := time.Now()
	built, err := sp.builder(nil, nil)(in.rs)
	if err != nil {
		return err
	}
	if sp.churn {
		m["update.rebuild_ms"] = float64(time.Since(t0)) / 1e6
	}
	eng := built.(core.BatchClassifier)

	var caches [workers]*flowcache.Private
	var hdrs [workers][]packet.Header
	var hashes [workers][]uint64
	var res [workers][]int
	for w := range caches {
		if sp.cache > 0 {
			caches[w] = flowcache.NewPrivate(sp.cache / workers)
		}
		res[w] = make([]int, sp.batch)
	}
	hashBuf := make([]uint64, sp.batch)
	steer := make([]uint8, sp.batch)
	parent := -1 // the flowcache span the miss callback runs under
	miss := func(h []packet.Header, out []int) {
		t := time.Now()
		eng.ClassifyBatch(h, out)
		rec.add(lEngine, parent, t, time.Now(), len(h))
	}
	half := min(len(in.trace)/2, handPackets)
	hand := func(trace []packet.Header, record bool) {
		for _, b := range makeBatches(trace, sp.batch) {
			root := -1
			if record {
				now := time.Now()
				root = rec.add(lHand, -1, now, now, len(b.hdrs)) // closed below
			}
			tb := time.Now()
			for i := range b.hdrs {
				h := b.hdrs[i].Key().Hash()
				hashBuf[i] = h
				steer[i] = uint8(packet.SteerWorker(h, workers))
			}
			tk := time.Now()
			for w := range hdrs {
				hdrs[w], hashes[w] = hdrs[w][:0], hashes[w][:0]
			}
			for i, w := range steer {
				hdrs[w] = append(hdrs[w], b.hdrs[i])
				hashes[w] = append(hashes[w], hashBuf[i])
			}
			if record {
				rec.add(lKeyHash, root, tb, tk, len(b.hdrs))
			}
			for w := range hdrs {
				if len(hdrs[w]) == 0 {
					continue
				}
				out := res[w][:len(hdrs[w])]
				t := time.Now()
				if caches[w] == nil {
					eng.ClassifyBatch(hdrs[w], out)
					if record {
						rec.add(lEngine, root, t, time.Now(), len(out))
					}
					continue
				}
				if record {
					// Reserve the slot first: the miss callback names it.
					parent = rec.add(lFlowcache, root, t, t, len(out))
					caches[w].ClassifyBatchPrehashedInto(1, hdrs[w], hashes[w], out, miss)
					rec.close(parent)
				} else {
					caches[w].ClassifyBatchPrehashedInto(1, hdrs[w], hashes[w], out, eng.ClassifyBatch)
				}
			}
			rec.close(root)
		}
	}
	hand(in.trace[:half], false)
	hand(in.trace[half:2*half], true)

	// Sampled kernel spans over the start of the measured half.
	sample := in.trace[half : 2*half]
	block := func(i int) []packet.Header {
		lo := (i * blockSize) % max(len(sample)-blockSize, 1)
		return sample[lo : lo+min(blockSize, len(sample))]
	}
	addrs := make([]int, packet.NumStrides(stride))
	for i := 0; i < blocks; i++ {
		hs := block(i)
		t := time.Now()
		for _, h := range hs {
			h.Key().StridesInto(stride, addrs)
		}
		rec.add(lStrides, -1, t, time.Now(), len(hs))
	}
	if sbv, ok := built.(*stridebv.Engine); ok {
		vecs := make([]bitvec.Vector, blockSize)
		for i := 0; i < blocks; i++ {
			hs := block(i)
			t := time.Now()
			for j, h := range hs {
				vecs[j] = sbv.MatchVector(h.Key())
			}
			t1 := time.Now()
			for j := range hs {
				sink += penc.Encode(vecs[j])
			}
			rec.add(lMatchVector, -1, t, t1, len(hs))
			rec.add(lPenc, -1, t1, time.Now(), len(hs))
		}
	}
	linear := core.NewLinear(in.rs)
	out := make([]int, blockSize)
	for i := 0; i < 2; i++ {
		hs := block(i)
		t := time.Now()
		linear.ClassifyBatch(hs, out[:len(hs)])
		rec.add(lLinear, -1, t, time.Now(), len(hs))
	}

	if !sp.churn {
		return nil
	}
	// One incremental swap, step by step, as serve.ApplyOps does it.
	rs, cur := in.rs, built
	for k := 0; k < handSwaps && (k+1)*opsSwap <= len(in.ops); k++ {
		ops := in.ops[k*opsSwap : (k+1)*opsSwap]
		t0 := time.Now()
		next, err := update.ApplyToRuleSet(rs, ops)
		if err != nil {
			return err
		}
		t1 := time.Now()
		rules, entries, err := update.Deltas(ops)
		if err != nil {
			return err
		}
		t2 := time.Now()
		upd, err := update.ApplyDeltasToEngine(cur, rules, entries)
		if err != nil {
			return err
		}
		t3 := time.Now()
		if mis := update.VerifyDeltasScoped(upd, rs, next, rules, 16, seed+int64(k)); mis != nil {
			return fmt.Errorf("hand-lowered swap %d diverged from the linear reference: %s", k, mis)
		}
		t4 := time.Now()
		rec.add(lApplyRuleSet, -1, t0, t1, 1)
		rec.add(lDeltas, -1, t1, t2, 1)
		rec.add(lApplyDeltas, -1, t2, t3, 1)
		rec.add(lVerifyScoped, -1, t3, t4, 1)
		rs, cur = next, upd
	}
	return nil
}

// bare is the service's live engine without the span decorator.
func bare(svc *serve.Service) core.Engine { return svc.Engine().(*spanEngine).Engine }

// cacheBytesPerEntry measures what one flow-cache entry costs on the heap.
func cacheBytesPerEntry() float64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	c := flowcache.NewPrivate(1 << 16)
	runtime.ReadMemStats(&m1)
	n := c.Entries()
	runtime.KeepAlive(c)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
}

// sink keeps the compiler from discarding a timed kernel's result.
var sink int
