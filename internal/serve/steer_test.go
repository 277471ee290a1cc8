package serve

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pktclass/internal/core"
	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
	"pktclass/internal/update"
)

// The dispatch path must classify exactly like the bare linear reference:
// the scatter/gather hop, the private caches, and the result re-ordering
// are all invisible in the output.
func TestSteeredMatchesUnsteered(t *testing.T) {
	rs := prefixSet(t, 48, 71)
	svc, err := New(rs.Clone(), strideBuild, Config{Workers: 4, CacheEntries: 1 << 12, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, svc)
	ref := core.NewLinear(rs)
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 2048, MatchFraction: 0.7, Seed: 72})
	// Three passes: cold misses, warm hits, and the async Submit path must
	// all agree with the linear reference.
	out := make([]int, len(trace))
	for pass := 0; pass < 2; pass++ {
		if err := svc.ClassifySteered(trace, out); err != nil {
			t.Fatal(err)
		}
		checkAgainst(t, fmt.Sprint("sync pass ", pass), ref)(0, trace, out)
	}
	classifyChunks(t, svc, trace, len(trace), checkAgainst(t, "async", ref))
	if st, ok := svc.CacheStats(); !ok {
		t.Fatal("CacheStats not ok on a cached service")
	} else if st.Hits == 0 || st.Shards != 4 {
		t.Fatalf("aggregated cache stats: %+v", st)
	}
	if ws := svc.WorkerCacheStats(); len(ws) != 4 {
		t.Fatalf("WorkerCacheStats: %d entries, want 4", len(ws))
	}
}

// The service's cache view sums every worker's coalesced misses, and the
// counters table shows them: a batch of 64 copies each of 4 new flows
// leaves 4 leaders and 252 followers, wherever the flows are steered.
func TestCacheStatsSumCoalesced(t *testing.T) {
	rs := prefixSet(t, 16, 73)
	svc, err := New(rs, strideBuild, Config{Workers: 2, CacheEntries: 1 << 10, Seed: 73})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, svc)
	flows := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 4, MatchFraction: 1, Seed: 74})
	hdrs := make([]packet.Header, 64*len(flows))
	for i := range hdrs {
		hdrs[i] = flows[i%len(flows)]
	}
	if err := svc.ClassifySteered(hdrs, make([]int, len(hdrs))); err != nil {
		t.Fatal(err)
	}
	st, _ := svc.CacheStats()
	var perWorker int64
	for _, ws := range svc.WorkerCacheStats() {
		perWorker += ws.Coalesced
	}
	if st.Coalesced != 252 || perWorker != st.Coalesced || st.Misses != 256 {
		t.Fatalf("coalesced %d (workers sum %d), misses %d; want 252 of 256", st.Coalesced, perWorker, st.Misses)
	}
	if table := svc.Counters().Table().String(); !strings.Contains(table, "cache coalesced") {
		t.Fatalf("counters table has no coalesced row:\n%s", table)
	}
}

// submitForm is one way a batch reaches the workers, for the raced
// proofs. On 4 workers the asynchronous path always hands off, a 16-packet
// synchronous batch leaves shares of ~4 packets that the submitter runs
// inline, and a 256-packet one leaves shares of ~64 that it hands off.
type submitForm struct {
	name  string
	n     int
	async bool
}

var submitForms = []submitForm{
	{"async-64", 64, true},
	{"steered-16-inline", 16, false},
	{"steered-256-handoff", 256, false},
}

// classify runs hdrs through svc the way the form submits.
func (f submitForm) classify(svc *Service, hdrs []packet.Header) ([]int, error) {
	if f.async {
		return svc.Classify(context.Background(), hdrs)
	}
	out := make([]int, len(hdrs))
	return out, svc.ClassifySteered(hdrs, out)
}

// Flow affinity is the steering contract: across concurrent submitters
// AND engine hot-swaps, every packet of a flow must be observed by
// exactly one worker, whichever goroutine holds the worker's claim. Run
// under -race on an observed service this also proves the scatter path
// publishes tasks safely and that each worker's private cache and
// detector stripe have one writer at a time, inline shares included.
func TestRacedSteeredFlowAffinity(t *testing.T) {
	for _, form := range submitForms {
		t.Run(form.name, func(t *testing.T) { testSteeredFlowAffinity(t, form) })
	}
}

func testSteeredFlowAffinity(t *testing.T, form submitForm) {
	rs := prefixSet(t, 48, 73)
	svc, err := New(rs.Clone(), strideBuild, Config{
		Workers: 4, CacheEntries: 1 << 10, Incremental: true, Seed: 73,
		Obs: newTelemetryObs(0), TopFlows: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, svc)

	var (
		ownerMu  sync.Mutex
		owner    = map[packet.Key]int{}
		violated []string
	)
	svc.testObserveSteer = func(worker int, hdrs []packet.Header) {
		ownerMu.Lock()
		defer ownerMu.Unlock()
		for _, h := range hdrs {
			k := h.Key()
			if w, seen := owner[k]; seen && w != worker {
				if len(violated) < 4 {
					violated = append(violated, h.String())
				}
				continue
			}
			owner[k] = worker
		}
	}

	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 512, MatchFraction: 0.7, Seed: 74})
	var wg sync.WaitGroup
	var updaterErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; n < 12; n++ {
			ops, err := update.GenerateOps(svc.RuleSet(), 4, int64(700+n))
			if err != nil {
				updaterErr = err
				return
			}
			if err := svc.ApplyOps(ops); err != nil {
				updaterErr = err
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			for round := 0; round < 30; round++ {
				lo := ((off + round) * 48) % (len(trace) - form.n)
				if _, err := form.classify(svc, trace[lo:lo+form.n]); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if updaterErr != nil {
		t.Fatal(updaterErr)
	}
	if len(violated) > 0 {
		t.Fatalf("flows observed by more than one worker: %v", violated)
	}
	if got, want := svc.FlowStats().Packets(), uint64(3*30*form.n); got != want {
		t.Fatalf("detector saw %d packets, want %d", got, want)
	}
	spread := 0
	seen := map[int]bool{}
	ownerMu.Lock()
	for _, w := range owner {
		seen[w] = true
	}
	ownerMu.Unlock()
	spread = len(seen)
	if spread < 2 {
		t.Fatalf("steering collapsed onto %d worker(s)", spread)
	}
}

// Regression: dispatch must not touch the scatter scratch after the last
// live task is sent. Single-packet async batches on a wide worker set
// maximize the window — one live task, then trailing empty-task
// iterations while the lone worker can already be finishing the batch and
// recycling the scratch into a concurrent submitter. Pre-fix, -race
// flags the stale iteration reading tasks another Submit is gathering
// into (and the scratch could even be double-sent).
func TestRacedSteeredAsyncScratchReuse(t *testing.T) {
	rs := prefixSet(t, 48, 91)
	svc, err := New(rs.Clone(), strideBuild, Config{Workers: 8, CacheEntries: 1 << 10, Seed: 91})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, svc)
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 256, MatchFraction: 0.7, Seed: 92})
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < 400; i++ {
				h := trace[(off*53+i)%len(trace) : (off*53+i)%len(trace)+1]
				got, err := svc.Classify(ctx, h)
				if err != nil {
					t.Error(err)
					return
				}
				if want := rs.FirstMatch(h[0]); got[0] != want {
					t.Errorf("packet scattered into the wrong batch: got %d want %d", got[0], want)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

// A CacheEntries smaller than the worker count must still mean "tiny
// cache": integer division would hand NewPrivate a zero, which it treats
// as "use the 4096-entry default", silently inflating a deliberately
// small cache by Workers*4096.
func TestSteeredTinyCacheNotInflated(t *testing.T) {
	rs := prefixSet(t, 16, 93)
	svc, err := New(rs.Clone(), strideBuild, Config{Workers: 4, CacheEntries: 2, Seed: 93})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, svc)
	for _, w := range svc.workers {
		if got := w.cache.Entries(); got >= 1<<12 {
			t.Fatalf("worker cache ballooned to %d entries from CacheEntries=2", got)
		}
	}
}

// After a cached batch completes, the worker must not keep the batch's
// engine build reachable: an idle worker would otherwise pin a retired
// build (and its ruleset-sized structures) until its next batch.
func TestSteeredWorkerUnbindsEngine(t *testing.T) {
	rs := prefixSet(t, 16, 95)
	svc, err := New(rs.Clone(), strideBuild, Config{Workers: 2, CacheEntries: 1 << 8, Seed: 95})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, svc)
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 64, MatchFraction: 0.5, Seed: 96})
	if err := svc.ClassifySteered(trace, make([]int, len(trace))); err != nil {
		t.Fatal(err)
	}
	// ClassifySteered's wg.Wait orders these reads after every worker's
	// batch completion.
	for i, w := range svc.workers {
		if w.eng != nil {
			t.Fatalf("worker %d still pins the batch engine after completion", i)
		}
	}
}

// Which path a share takes: a small synchronous share on an idle worker
// runs on the submitter and is never queued, a share above inlineShare is
// handed off, and an asynchronous Submit hands off however small it is —
// a caller that pipelines batches relies on the queue for per-flow FIFO.
func TestSteeredInlineOnlySmallSyncShares(t *testing.T) {
	rs := prefixSet(t, 32, 115)
	ref := core.NewLinear(rs)
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 512, MatchFraction: 0.8, Seed: 116})
	for _, tc := range []struct {
		form   submitForm
		queued bool
	}{
		{submitForm{"steered-8", 8, false}, false},
		{submitForm{"steered-32", inlineShare, false}, false},
		{submitForm{"steered-512", 512, false}, true},
		{submitForm{"async-8", 8, true}, true},
	} {
		t.Run(tc.form.name, func(t *testing.T) {
			svc, err := New(rs.Clone(), strideBuild, Config{Workers: 2, CacheEntries: 1 << 10, Seed: 115})
			if err != nil {
				t.Fatal(err)
			}
			defer mustClose(t, svc)
			hdrs := trace[:tc.form.n]
			got, err := tc.form.classify(svc, hdrs)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainst(t, tc.form.name, ref)(0, hdrs, got)
			if hw := svc.Counters().QueueHighWater; (hw > 0) != tc.queued {
				t.Fatalf("queue high-water %d after one %d-packet batch, want queued=%v", hw, len(hdrs), tc.queued)
			}
		})
	}
}

// Regression: no goroutine may block on a send while holding a worker's
// claim. Small batches run inline, large ones hand off through one-slot
// shards, and eight submitters mix the two: had dispatch taken a claim
// inside its send loop, one submitter would hold worker 0's claim while
// blocked on worker 1's full shard, worker 1 would wait for its claim,
// held by a second submitter blocked on worker 0's full shard — and
// every goroutine here would park for good.
func TestSteeredInlineNoDeadlock(t *testing.T) {
	const workers, submitters = 2, 8
	rs := prefixSet(t, 48, 113)
	svc, err := New(rs.Clone(), strideBuild, Config{Workers: workers, QueueDepth: workers, CacheEntries: 1 << 10, Seed: 113})
	if err != nil {
		t.Fatal(err)
	}
	ref := core.NewLinear(rs)
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 1024, MatchFraction: 0.7, Seed: 114})
	want := make([]int, len(trace))
	for i, h := range trace {
		want[i] = ref.Classify(h)
	}
	stop := time.Now().Add(2 * time.Second)
	errs := make(chan string, submitters)
	var wg sync.WaitGroup
	for c := 0; c < submitters; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := make([]int, 512)
			for i := 0; time.Now().Before(stop); i++ {
				n := 8
				if (c+i)%2 == 1 {
					n = 512
				}
				lo := (c*131 + i*8) % (len(trace) - n)
				if err := svc.ClassifySteered(trace[lo:lo+n], out[:n]); err != nil {
					errs <- err.Error()
					return
				}
				for j, got := range out[:n] {
					if got != want[lo+j] {
						errs <- fmt.Sprintf("packet %d: got %d want %d", lo+j, got, want[lo+j])
						return
					}
				}
			}
		}(c)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		// Close would wait on the parked submitters too: fail without it.
		t.Fatal("submitters still parked 8 s past the deadline: a claim is held across a blocking send")
	}
	mustClose(t, svc)
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
}

// Per-flow FIFO across the two submit forms: a ClassifySteered batch that
// starts after an asynchronous Submit of the same flow returned must be
// classified after it, even when its share is small enough to run inline.
// The hook stalls worker 0 on the Submit batch; the synchronous batch must
// not reach the hook first. A worker that has received a task but not yet
// taken its claim leaves its shard empty and its claim free, so an
// idleness test on the shard's length alone lets the small share jump
// ahead; the in-flight count (raised before the send, lowered after
// runSteered) closes that window.
func TestSteeredInlineKeepsFlowOrder(t *testing.T) {
	rs := prefixSet(t, 16, 111)
	svc, err := New(rs.Clone(), strideBuild, Config{Workers: 2, Seed: 111})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, svc)
	f := headerForWorker(t, 0, 2)
	stalled := make([]packet.Header, 8)
	small := make([]packet.Header, 4)
	for i := range stalled {
		stalled[i] = f
	}
	for i := range small {
		small[i] = f
	}
	var (
		mu      sync.Mutex
		seen    []int // sub-batch lengths, in the order worker 0's claim holders classified them
		release chan struct{}
	)
	svc.testObserveSteer = func(w int, hdrs []packet.Header) {
		if w != 0 {
			return
		}
		mu.Lock()
		seen = append(seen, len(hdrs))
		rel := release
		mu.Unlock()
		if len(hdrs) == len(stalled) {
			<-rel
		}
	}
	out := make([]int, len(small))
	for round := 0; round < 30; round++ {
		rel := make(chan struct{})
		mu.Lock()
		seen, release = seen[:0], rel
		mu.Unlock()
		p, err := svc.Submit(stalled)
		if err != nil {
			t.Fatal(err)
		}
		// Released on a timer: an in-order synchronous call waits behind
		// the stalled batch, an out-of-order one returns before the release.
		time.AfterFunc(2*time.Millisecond, func() { close(rel) })
		if err := svc.ClassifySteered(small, out); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		order := fmt.Sprint(seen)
		mu.Unlock()
		if order != fmt.Sprint([]int{len(stalled), len(small)}) {
			t.Fatalf("round %d: worker 0 classified sub-batches of %s, want the stalled Submit's %d first", round, order, len(stalled))
		}
	}
}

// The steered version-window differential proof, the private-cache
// analogue of TestRacedIncrementalRebuildInterleaving: readers race an
// updater alternating incremental applies with rebuild reloads, and every
// batch must match SOME committed version in its in-flight window. A
// private cache serving a retired generation would surface results from a
// version BEFORE the window — exactly what this check rejects. Inline
// shares classify against the same pinned pair as handed-off ones, so the
// check holds for every submit form.
func TestRacedSteeredVersionWindow(t *testing.T) {
	for _, form := range submitForms {
		t.Run(form.name, func(t *testing.T) { testSteeredVersionWindow(t, form) })
	}
}

func testSteeredVersionWindow(t *testing.T, form submitForm) {
	const swaps = 20
	rs := prefixSet(t, 48, 75)
	svc, err := New(rs.Clone(), strideBuild, Config{Workers: 4, CacheEntries: 1 << 10, Incremental: true, Seed: 75})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, svc)

	var (
		verMu    sync.Mutex
		versions = []*ruleset.RuleSet{rs}
	)
	snapshotLen := func() int {
		verMu.Lock()
		defer verMu.Unlock()
		return len(versions)
	}
	versionAt := func(i int) *ruleset.RuleSet {
		verMu.Lock()
		defer verMu.Unlock()
		return versions[i]
	}

	var wg sync.WaitGroup
	var updaterErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; n < swaps; n++ {
			if n%2 == 0 {
				ops, err := update.GenerateOps(svc.RuleSet(), 4, int64(800+n))
				if err != nil {
					updaterErr = err
					return
				}
				if err := svc.ApplyOps(ops); err != nil {
					updaterErr = err
					return
				}
			} else {
				next := ruleset.Generate(ruleset.GenConfig{N: 48, Profile: ruleset.PrefixOnly, Seed: int64(900 + n), DefaultRule: true})
				if err := svc.Reload(next); err != nil {
					updaterErr = err
					return
				}
			}
			cur := svc.RuleSet()
			verMu.Lock()
			versions = append(versions, cur)
			verMu.Unlock()
		}
	}()

	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 1024, MatchFraction: 0.7, Seed: 76})
	consistent := func(v *ruleset.RuleSet, hdrs []packet.Header, got []int) bool {
		for i, h := range hdrs {
			if got[i] != v.FirstMatch(h) {
				return false
			}
		}
		return true
	}
	readerErrs := make(chan string, 3)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			for round := 0; round < 30; round++ {
				lo := ((off + round) * 32) % (len(trace) - form.n)
				hdrs := trace[lo : lo+form.n]
				loIdx := snapshotLen() - 1
				got, err := form.classify(svc, hdrs)
				if err != nil {
					readerErrs <- err.Error()
					return
				}
				ok := false
				for attempt := 0; attempt < 100 && !ok; attempt++ {
					hiIdx := snapshotLen()
					for v := loIdx; v < hiIdx && !ok; v++ {
						ok = consistent(versionAt(v), hdrs, got)
					}
					if !ok {
						time.Sleep(time.Millisecond)
					}
				}
				if !ok {
					readerErrs <- "steered batch inconsistent with every committed version in its window (retired-generation cache hit?)"
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if updaterErr != nil {
		t.Fatal(updaterErr)
	}
	select {
	case msg := <-readerErrs:
		t.Fatal(msg)
	default:
	}
	// A private cache adopts a new generation when its worker next sees a
	// batch, and the readers may all have finished before the first swap
	// committed: one batch after the last swap makes the check below hold
	// on any schedule.
	if _, err := svc.Classify(context.Background(), trace); err != nil {
		t.Fatal(err)
	}
	if st, ok := svc.CacheStats(); !ok || st.Generation < 2 {
		t.Fatalf("private caches never advanced generations: %+v ok=%v", st, ok)
	}
}

// Deterministic retirement proof: after a semantics-changing reload, every
// previously cached flow must re-classify under the new ruleset — the old
// generation's entries are dropped, visibly, as stale.
func TestSteeredCacheRetiresOnSwap(t *testing.T) {
	rs := prefixSet(t, 32, 77)
	svc, err := New(rs.Clone(), strideBuild, Config{Workers: 2, CacheEntries: 1 << 10, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, svc)
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 256, MatchFraction: 0.9, Seed: 78})
	out := make([]int, len(trace))
	// Two passes fill the private caches and serve from them.
	for pass := 0; pass < 2; pass++ {
		if err := svc.ClassifySteered(trace, out); err != nil {
			t.Fatal(err)
		}
	}
	gen := svc.Generation()
	next := ruleset.Generate(ruleset.GenConfig{N: 32, Profile: ruleset.PrefixOnly, Seed: 79, DefaultRule: true})
	if err := svc.Reload(next); err != nil {
		t.Fatal(err)
	}
	if got := svc.Generation(); got <= gen {
		t.Fatalf("generation did not advance across reload: %d -> %d", gen, got)
	}
	if err := svc.ClassifySteered(trace, out); err != nil {
		t.Fatal(err)
	}
	for i, h := range trace {
		if want := next.FirstMatch(h); out[i] != want {
			t.Fatalf("packet %d served a retired ruleset: got %d want %d", i, out[i], want)
		}
	}
	st, ok := svc.CacheStats()
	if !ok || st.StaleDrops == 0 {
		t.Fatalf("no stale drops recorded after a generation bump: %+v", st)
	}
}

func TestClassifySteeredErrors(t *testing.T) {
	rs := prefixSet(t, 16, 81)
	hdrs := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 8, MatchFraction: 0.5, Seed: 82})
	svc, err := New(rs.Clone(), strideBuild, Config{Workers: 2, Seed: 83})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.ClassifySteered(hdrs, make([]int, 4)); err == nil {
		t.Fatal("ClassifySteered accepted a mis-sized output")
	}
	if err := svc.ClassifySteered(nil, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	mustClose(t, svc)
	if err := svc.ClassifySteered(hdrs, make([]int, 8)); err != ErrClosed {
		t.Fatalf("after close: %v, want ErrClosed", err)
	}
}

// A worker stays warm for one bounded spell after a share of more than
// inlineShare packets, and only then. Back-to-back large batches find their
// workers warm; after an idle period far longer than the spell, the next
// large batch finds both parked; and traffic made only of small
// asynchronous shares never starts a spell at all.
func TestSteeredSpellEndsInPark(t *testing.T) {
	rs := prefixSet(t, 32, 117)
	ref := core.NewLinear(rs)
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 512, MatchFraction: 0.8, Seed: 118})
	t.Run("large", func(t *testing.T) {
		svc, err := New(rs.Clone(), strideBuild, Config{Workers: 2, Seed: 117})
		if err != nil {
			t.Fatal(err)
		}
		defer mustClose(t, svc)
		out := make([]int, len(trace))
		for i := 0; i < 200; i++ {
			if err := svc.ClassifySteered(trace, out); err != nil {
				t.Fatal(err)
			}
		}
		checkAgainst(t, "back to back", ref)(0, trace, out)
		if svc.handoffsWarm.Value() == 0 {
			t.Fatal("200 back-to-back 512-packet batches on 2 workers: no share reached a warm worker")
		}
		// Each longer idle period is a retry for a starved box, not a
		// tolerance: a spell that never ends fails every one of them.
		for idle := 20 * time.Millisecond; ; idle *= 4 {
			time.Sleep(idle)
			warm, cold := svc.handoffsWarm.Value(), svc.handoffsCold.Value()
			if err := svc.ClassifySteered(trace, out); err != nil {
				t.Fatal(err)
			}
			dw, dc := svc.handoffsWarm.Value()-warm, svc.handoffsCold.Value()-cold
			if dw == 0 && dc == 2 {
				break
			}
			if idle > time.Second {
				t.Fatalf("after %v idle: %d warm and %d cold hand-offs, want 0 and 2", idle, dw, dc)
			}
		}
	})
	t.Run("small-async", func(t *testing.T) {
		svc, err := New(rs.Clone(), strideBuild, Config{Workers: 2, Seed: 117})
		if err != nil {
			t.Fatal(err)
		}
		defer mustClose(t, svc)
		pending := make([]*Pending, 4)
		for round := 0; round < 100; round++ {
			for i := range pending {
				lo := (round*4 + i) * 8 % (len(trace) - inlineShare)
				p, err := svc.Submit(trace[lo : lo+inlineShare])
				if err != nil {
					t.Fatal(err)
				}
				pending[i] = p
			}
			for _, p := range pending {
				if _, err := p.Wait(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
		}
		var shares int64
		for _, wl := range svc.WorkerLoads() {
			shares += wl.Batches
		}
		if warm, cold := svc.handoffsWarm.Value(), svc.handoffsCold.Value(); warm != 0 || cold != shares {
			t.Fatalf("%d shares of ≤ %d packets: %d warm and %d cold hand-offs, want 0 and %d", shares, inlineShare, warm, cold, shares)
		}
	})
}

// Close issued while the workers are in their warm spell returns at once:
// the closed shard ends the spell, every task queued before Close is still
// answered, and no worker goroutine outlives the service.
func TestSteeredCloseDuringSpell(t *testing.T) {
	base := runtime.NumGoroutine()
	rs := prefixSet(t, 32, 119)
	ref := core.NewLinear(rs)
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 512, MatchFraction: 0.8, Seed: 120})
	svc, err := New(rs.Clone(), strideBuild, Config{Workers: 4, CacheEntries: 1 << 10, Seed: 119})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.ClassifySteered(trace, make([]int, len(trace))); err != nil {
		t.Fatal(err)
	}
	// The workers that ran those shares are in their spell now: queue more
	// large batches behind them and close at once.
	pending := make([]*Pending, 4)
	for i := range pending {
		p, err := svc.Submit(trace)
		if err != nil {
			t.Fatal(err)
		}
		pending[i] = p
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := svc.Close(ctx); err != nil {
		t.Fatalf("close during the spell: %v", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("close during the spell took %v", took)
	}
	for i, p := range pending {
		got, err := p.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainst(t, fmt.Sprint("batch queued before close ", i), ref)(0, trace, got)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before New", runtime.NumGoroutine(), base)
		}
	}
}

// steeredBenchShapes are the two paths a synchronous steered batch takes:
// large, a 512-packet batch on 4 workers whose ~128-packet shares are all
// handed off; small, a 32-packet batch on 2 workers whose shares the
// submitter runs inline.
var steeredBenchShapes = []struct {
	name       string
	workers, n int
}{
	{"large", 4, 512},
	{"small", 2, inlineShare},
}

// BenchmarkSteeredSubmit is the CI allocation gate for the steered hot
// path: one op = one synchronous steered batch (scatter, per-worker
// private-cache probe — handed off or inline — gather). Steady state must
// not allocate on either path.
func BenchmarkSteeredSubmit(b *testing.B) {
	for _, shape := range steeredBenchShapes {
		b.Run(shape.name, func(b *testing.B) {
			rs := prefixSet(b, 64, 85)
			svc, err := New(rs.Clone(), strideBuild, Config{Workers: shape.workers, CacheEntries: 1 << 12, Seed: 85})
			if err != nil {
				b.Fatal(err)
			}
			defer mustClose(b, svc)
			benchSteered(b, svc, ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: shape.n, MatchFraction: 0.9, Seed: 86}))
		})
	}
}

// benchSteered warms svc on trace, then times one ClassifySteered of the
// whole trace per op.
func benchSteered(b *testing.B, svc *Service, trace []packet.Header) {
	out := make([]int, len(trace))
	for warm := 0; warm < 4; warm++ {
		if err := svc.ClassifySteered(trace, out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := svc.ClassifySteered(trace, out); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}
