// The service's one dispatch path, RSS-style: Submit hashes every packet's
// flow key and scatters the batch so each worker receives exactly the
// packets whose flows it owns. The payoff is the same one hardware RSS
// buys a multi-queue NIC — per-flow FIFO order for free, worker-private
// cache state with a single writer, and no cross-core cache-line traffic
// on the classify path. The cost is a gather/scatter hop per batch, paid
// on the submitter's core from pooled scratch so the steady state
// allocates nothing.
//
// The cross-goroutine hand-off is not paid by every batch. A synchronous
// ClassifySteered share of at most inlineShare packets whose worker is
// idle runs on the submitter itself, under that worker's claim and on
// that worker's state. Larger shares, shares of a busy worker and every
// asynchronous Submit share still go through the worker's queue; a worker
// that has just run a larger share polls that queue for one spell before
// it parks (worker.receive), so the next large share finds it awake.
package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pktclass/internal/core"
	"pktclass/internal/packet"
)

// inlineShare is the largest synchronous share the submitter classifies
// itself instead of handing it to an idle worker, and the share size above
// which a worker stays warm for one spell (spellPolls) after running it.
// A hand-off to a parked worker — two channel operations, two wake-ups and
// a WaitGroup park — costs about as much as classifying 32–64 cached
// packets, and far less than a 128-packet engine share, which is worth a
// core of its own: at 32 every share of a 32-packet batch qualifies and no
// share of a 256-packet batch on two workers comes close. A hand-off into
// a worker still in its spell costs a buffered put instead of the
// worker's wake-up. Small shares start no spell: their cheapest path is
// inline, and a spell after them would put a polling worker beside every
// small batch.
const inlineShare = 32

// steerTask is one worker's share of a steered batch: the gathered
// headers, their positions in the original batch, and a private result
// buffer the worker fills before scattering back into the batch output.
// A task is written by the submitter, then either sent by value-pointer
// through the worker's shard channel or run inline by the submitter,
// mutated only by the holder of that worker's claim, and reset when the
// batch completes — there is no concurrent access to any field. Tasks
// live inside the pooled scratch, so a task's lifetime ends with its
// batch: after finish drops the worker's reference the scratch — tasks
// included — may already be gathering the next batch.
//
//pclass:pooled
type steerTask struct {
	sc     *steerScratch
	hdrs   []packet.Header // this worker's packets, in batch order
	hashes []uint64        // flow hashes, parallel to hdrs: computed once at dispatch, reused by the private cache and the heavy-hitter detector
	idx    []int32         // original batch positions, parallel to hdrs
	res    []int           // worker-filled results, parallel to hdrs
	out    []int           // the whole batch's output slice
	p      *Pending        // async submit; nil on the ClassifySteered path
	// l is the (engine, generation) pair pinned by the submitter with ONE
	// atomic load for the whole batch. Workers classify their sub-batches
	// against it rather than re-loading: a batch scattered across workers
	// still lands atomically on a single engine version.
	l *live
}

// steerScratch is the per-batch scatter state, pooled on the Service. One
// task per worker; wg completes synchronous batches, pending completes
// asynchronous ones. Both counts include one reference held by dispatch
// itself for the duration of the send loop and the inline runs, so
// whoever drops the last reference — a finishing worker or the dispatching
// submitter — closes the Pending and returns the scratch to the pool.
//
//pclass:pooled
type steerScratch struct {
	s       *Service
	tasks   []steerTask
	wg      sync.WaitGroup
	pending atomic.Int32
}

// getSteerScratch fetches (or builds) scatter scratch sized to the worker
// count. The pool bounds steady-state allocation: after warm-up every
// steered batch reuses a previously grown scratch.
//
//pclass:pooled
//pclass:hotpath
func (s *Service) getSteerScratch() *steerScratch {
	if sc, ok := s.steerPool.Get().(*steerScratch); ok {
		return sc
	}
	//pclass:allow-alloc cold pool miss; the steady state always hits the pool (gated by BenchmarkSteeredSubmit's 0 allocs/op)
	sc := &steerScratch{s: s, tasks: make([]steerTask, len(s.shards))}
	for i := range sc.tasks {
		sc.tasks[i].sc = sc
	}
	return sc
}

// release resets the tasks (dropping every reference into the caller's
// batch, so the pool never retains foreign slices) and returns the
// scratch to the pool. Capacity — hdrs/idx/res backing arrays — is kept.
//
//pclass:releases
//pclass:hotpath
func (sc *steerScratch) release() {
	for i := range sc.tasks {
		t := &sc.tasks[i]
		t.hdrs = t.hdrs[:0]
		t.hashes = t.hashes[:0]
		t.idx = t.idx[:0]
		t.out = nil
		t.p = nil
		t.l = nil
	}
	sc.s.steerPool.Put(sc)
}

// dispatch gathers hdrs into per-worker tasks by flow hash and sends each
// non-empty task to its owner's shard — except, for a synchronous batch
// (p nil), the shares of at most inlineShare packets, which it runs itself
// on every worker it finds idle and hands off to the others. Sends block
// on a full shard: a sub-batch cannot spill to another worker without
// breaking flow affinity, so backpressure is latency, never a dropped
// batch. The completion count (wg for synchronous, pending for
// asynchronous) is armed before the first send — a worker may finish its
// task before the submitter has sent the next one — and includes one
// extra reference that dispatch holds until it stops touching sc. Without
// it, the workers could finish every sent task and recycle the scratch
// while this loop is still reading trailing sc.tasks entries, and a
// concurrent Submit could be gathering into the reused scratch under the
// stale iteration.
//
// Every large share is sent before the first claim is taken, and a claim
// is released before the next share is looked at, so dispatch never
// blocks on a send while holding a claim. Taking a claim inside the send
// loop instead lets two submitters close a cycle: one holds worker 0's
// claim and waits on worker 1's full shard, worker 1 waits for its claim,
// which the other submitter holds while it waits on worker 0's full shard.
//
// Callers hold s.lifecycle shared with s.closed false, which pins every
// shard open; the blocking sends cannot deadlock against Close because
// workers drain their shards without touching the lifecycle lock.
//
//pclass:pinned
//pclass:hotpath
func (s *Service) dispatch(sc *steerScratch, hdrs []packet.Header, out []int, p *Pending) {
	nw := len(s.shards)
	obs := s.obs
	var scatterStart time.Time
	if obs != nil {
		scatterStart = time.Now()
	}
	// One engine load per batch, shared by every sub-batch (see
	// steerTask.l).
	l := s.engine.Load()
	for i := range hdrs {
		// High hash bits pick the worker, low bits stay free for the
		// private cache's bucket index — see packet.SteerWorker. The hash
		// travels with the task: the private cache and the heavy-hitter
		// detector reuse it instead of rehashing.
		h := hdrs[i].Hash()
		w := packet.SteerWorker(h, nw)
		t := &sc.tasks[w]
		//pclass:allow-alloc appends into scratch capacity retained across batches; amortized to 0 allocs/op
		t.hdrs = append(t.hdrs, hdrs[i])
		//pclass:allow-alloc appends into scratch capacity retained across batches; amortized to 0 allocs/op
		t.hashes = append(t.hashes, h)
		//pclass:allow-alloc appends into scratch capacity retained across batches; amortized to 0 allocs/op
		t.idx = append(t.idx, int32(i))
	}
	live := int32(1) // +1: dispatch's own reference, dropped after the loop
	for w := range sc.tasks {
		if len(sc.tasks[w].hdrs) > 0 {
			live++
		}
	}
	if p != nil {
		sc.pending.Store(live)
	} else {
		sc.wg.Add(int(live))
	}
	for w := range sc.tasks {
		t := &sc.tasks[w]
		n := len(t.hdrs)
		if n == 0 {
			continue
		}
		if cap(t.res) < n {
			//pclass:allow-alloc one-time grow per (scratch, worker) pair; reused forever after
			t.res = make([]int, n)
		}
		t.res = t.res[:n]
		t.out = out
		t.p = p
		t.l = l
		if p != nil || n > inlineShare {
			s.handOff(w, t)
		}
	}
	// The scatter histogram closes here: hashing, gather, and the queue
	// sends are all dispatch overhead (the Observe touches only the
	// histogram, never sc).
	if obs != nil {
		obs.SteerScatter.Observe(time.Since(scatterStart))
	}
	if p != nil {
		// Last touch of sc: drop dispatch's reference. If every worker
		// already finished, the submitter is the one completing the batch.
		sc.completeAsync(p)
		return
	}
	// The small synchronous shares, after every large one is sent: each
	// runs here under its worker's claim when the worker is idle, and goes
	// to the worker's queue otherwise.
	for w := range sc.tasks {
		t := &sc.tasks[w]
		if n := len(t.hdrs); n == 0 || n > inlineShare {
			continue
		}
		if wk := s.workers[w]; wk.tryClaim() {
			wk.runSteered(t)
			wk.claim.Unlock()
			continue
		}
		s.handOff(w, t)
	}
	// Last touch of sc: drop dispatch's reference.
	sc.wg.Done()
}

// handOff queues t on worker w's shard. The worker's in-flight count and
// the queue depth are both counted before the send: the worker uncounts
// the depth on receive, so the other order could publish a negative
// depth, and a submitter that sees the in-flight count at zero must be
// able to conclude that nothing for w is queued or running.
//
//pclass:hotpath
func (s *Service) handOff(w int, t *steerTask) {
	s.workers[w].inflight.Add(1)
	s.noteQueued(1)
	s.shards[w] <- t
}

// ClassifySteered classifies hdrs into out synchronously: scatter, run the
// small shares of idle workers on this goroutine, wait for every worker
// the rest went to, return. len(out) must equal len(hdrs). Unlike
// Classify it allocates no Pending and no channel — the steady state is
// zero allocations per call, which is what the scaling benchmark and the
// CI allocation gate measure.
//
//pclass:hotpath
func (s *Service) ClassifySteered(hdrs []packet.Header, out []int) error {
	if len(hdrs) == 0 {
		return nil
	}
	if len(out) != len(hdrs) {
		//pclass:allow-alloc misuse path, taken once per misconfigured caller, never per batch
		return fmt.Errorf("serve: output length %d != input length %d", len(out), len(hdrs))
	}
	s.lifecycle.RLock()
	defer s.lifecycle.RUnlock()
	if s.closed {
		s.closedSubmits.Inc()
		return ErrClosed
	}
	sc := s.getSteerScratch()
	s.dispatch(sc, hdrs, out, nil)
	sc.wg.Wait()
	s.batches.Inc()
	sc.release()
	return nil
}

// classify runs one sub-batch through this worker's private cache
// (misses fall through to the live engine via the pre-bound missFn) or,
// uncached, straight through the engine. The dispatch-computed flow
// hashes ride along so the cache skips its per-packet rehash. Holder of
// w's claim only.
//
//pclass:hotpath
func (w *worker) classify(l *live, hdrs []packet.Header, hashes []uint64, res []int) {
	if w.cache != nil {
		// missFn closes over w.eng: binding the batch's engine here keeps
		// the cache call allocation-free (no per-batch closure) while the
		// miss fallback still targets exactly the build whose generation
		// tags the probes.
		w.eng = l.eng
		w.cache.ClassifyBatchPrehashedInto(l.gen, hdrs, hashes, res, w.missFn)
		// Unbind the engine so a retired build doesn't stay pinned by an
		// idle worker until its next cached batch.
		w.eng = nil
		return
	}
	core.ClassifyBatchInto(l.eng, hdrs, res)
}

// runSteered processes one task against the (engine, generation)
// pair the submitter pinned, classifies this worker's sub-batch, scatters
// the results into the batch output, and completes. Holder of w's claim
// only: the worker goroutine for a handed-off task, the submitter for an
// inline one. Interleaved generations across tasks (a swap landing
// mid-batch-stream) only cost private-cache churn, never correctness: a
// probe's generation always names the exact build that classifies its
// misses.
//
//pclass:hotpath
func (w *worker) runSteered(t *steerTask) {
	s := w.s
	l := t.l
	if f := s.testObserveSteer; f != nil {
		f(w.id, t.hdrs)
	}
	// The heavy-hitter sketch observes this worker's own stripe with the
	// hashes dispatch already computed — single writer per stripe (the
	// claim holder), no rehash, one branch when detection is off.
	if d := s.det; d != nil {
		d.ObserveBatch(w.id, t.hdrs, t.hashes)
	}
	if obs := s.obs; obs != nil {
		if t.p != nil {
			obs.SubmitWait.Observe(time.Since(t.p.enq))
		}
		// The sampled packet traces through the bare engine, not the
		// private cache: the trace answers "what did the engine decide and
		// how", and a cache hit would hide exactly that.
		if idx, tr := obs.Tracer.SampleBatch(len(t.hdrs)); tr != nil {
			tr.Hdr = t.hdrs[idx]
			tr.Worker = int32(w.id)
			tr.Result = core.ClassifyTraced(l.eng, t.hdrs[idx], tr)
			obs.Tracer.Finish(tr)
		}
		start := time.Now()
		w.classify(l, t.hdrs, t.hashes, t.res)
		obs.ClassifyBatch.Observe(time.Since(start))
	} else {
		w.classify(l, t.hdrs, t.hashes, t.res)
	}
	for j, i := range t.idx {
		t.out[i] = t.res[j]
	}
	n := int64(len(t.hdrs))
	w.classified.Add(n)
	w.batches.Add(1)
	s.classified.Add(n)
	t.finish()
}

// finish completes one task. Synchronous batches park on the scratch's
// WaitGroup; asynchronous ones drop one pending reference (t.p is
// captured before the decrement — once it lands, another reference holder
// may release the scratch and nil the field).
//
//pclass:releases
//pclass:hotpath
func (t *steerTask) finish() {
	sc := t.sc
	if t.p == nil {
		sc.wg.Done()
		return
	}
	sc.completeAsync(t.p)
}

// completeAsync drops one reference to an asynchronous steered batch.
// Whoever drops the last one — a worker finishing its task, or dispatch
// after its send loop — closes the Pending and recycles the scratch (the
// results were already scattered into the batch output, so
// release-before-close is safe).
//
//pclass:releases
//pclass:hotpath
func (sc *steerScratch) completeAsync(p *Pending) {
	if sc.pending.Add(-1) == 0 {
		sc.s.batches.Inc()
		sc.release()
		close(p.done)
	}
}
