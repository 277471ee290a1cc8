package serve

import (
	"sync"
	"sync/atomic"
	"testing"

	"pktclass/internal/obsv"
	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
	"pktclass/internal/update"
)

// newTelemetryObs builds an Obs with histograms and journal but an
// optional tracer.
func newTelemetryObs(sample int) *obsv.Obs {
	var tracer *obsv.Tracer
	if sample > 0 {
		tracer = obsv.NewTracer(sample, 128)
	}
	return obsv.NewObs(nil, tracer)
}

// journalKinds counts the journal's events by kind.
func journalKinds(j *obsv.Journal) map[obsv.EventKind]int {
	kinds := map[obsv.EventKind]int{}
	for _, ev := range j.Snapshot() {
		kinds[ev.Kind]++
	}
	return kinds
}

// The acceptance-criteria raced proof: heavy-hitter detector and load
// telemetry reads must never block or corrupt worker-private state while
// workers classify under engine hot-swaps. Run under -race in CI.
func TestRacedSteeredDetectorDuringHotSwap(t *testing.T) {
	rs := prefixSet(t, 48, 91)
	obs := newTelemetryObs(0)
	svc, err := New(rs.Clone(), strideBuild, Config{
		Workers: 4, CacheEntries: 1 << 10, Incremental: true, Seed: 91, Obs: obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, svc)
	if svc.FlowStats() == nil {
		t.Fatal("steered observed service has no detector")
	}

	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 512, MatchFraction: 0.7, Seed: 92})
	stop := make(chan struct{})
	var wg, readers sync.WaitGroup
	// Scrape-style readers hammer every telemetry surface until the
	// writers are done.
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			det := svc.FlowStats()
			for {
				select {
				case <-stop:
					return
				default:
				}
				det.TopK(8)
				det.TopKShare()
				det.Report(4)
				svc.WorkerLoads()
				svc.ImbalanceIndex()
				obs.Journal.Snapshot()
			}
		}()
	}
	// An updater churns hot-swaps through the incremental path.
	var updaterErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; n < 12; n++ {
			ops, err := update.GenerateOps(svc.RuleSet(), 4, int64(900+n))
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
	// Two steered submitters drive the instrumented hot path.
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			out := make([]int, 64)
			for round := 0; round < 40; round++ {
				lo := ((off + round) * 48) % (len(trace) - 64)
				if err := svc.ClassifySteered(trace[lo:lo+64], out); err != nil {
					t.Error(err)
					return
				}
			}
		}(s * 3)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if updaterErr != nil {
		t.Fatal(updaterErr)
	}

	// After the storm the service still classifies like the linear
	// reference of its current ruleset...
	cur := svc.RuleSet()
	probe := ruleset.GenerateTrace(cur, ruleset.TraceConfig{Count: 256, MatchFraction: 0.8, Seed: 93})
	out := make([]int, len(probe))
	if err := svc.ClassifySteered(probe, out); err != nil {
		t.Fatal(err)
	}
	for i, h := range probe {
		if want := cur.FirstMatch(h); out[i] != want {
			t.Fatalf("post-race packet %d: steered %d, linear %d", i, out[i], want)
		}
	}
	// ...and the detector accounted every steered packet.
	det := svc.FlowStats()
	if det.Packets() < 2*40*64 {
		t.Fatalf("detector saw %d packets, want >= %d", det.Packets(), 2*40*64)
	}
	if kinds := journalKinds(obs.Journal); kinds[obsv.EventSwapCommitted] == 0 {
		t.Fatalf("no swap-committed events journaled: %v", kinds)
	}
}

// Steered traces must record the worker that classified the packet, and
// it must be the steering function's worker — raced with hot-swaps so
// the trace path is proven safe alongside swaps (satellite: /tracez
// worker attribution).
func TestRacedSteeredTraceWorkerID(t *testing.T) {
	rs := prefixSet(t, 48, 95)
	obs := newTelemetryObs(1) // trace every packet
	svc, err := New(rs.Clone(), strideBuild, Config{
		Workers: 4, CacheEntries: 1 << 10, Incremental: true, Seed: 95, Obs: obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, svc)

	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 256, MatchFraction: 0.7, Seed: 96})
	var wg sync.WaitGroup
	var updaterErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; n < 8; n++ {
			ops, err := update.GenerateOps(svc.RuleSet(), 4, int64(960+n))
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
	out := make([]int, 64)
	for round := 0; round < 30; round++ {
		lo := (round * 32) % (len(trace) - 64)
		if err := svc.ClassifySteered(trace[lo:lo+64], out); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if updaterErr != nil {
		t.Fatal(updaterErr)
	}

	traces := obs.Tracer.Snapshot()
	if len(traces) == 0 {
		t.Fatal("no traces sampled on the steered path")
	}
	for _, tr := range traces {
		if tr.Worker < 0 {
			t.Fatalf("steered trace missing worker id: %+v", tr)
		}
		want := packet.SteerWorker(tr.Hdr.Key().Hash(), svc.Workers())
		if int(tr.Worker) != want {
			t.Fatalf("trace worker %d, steering says %d (hdr %s)", tr.Worker, want, tr.Hdr)
		}
	}
}

// The scatter phase of every steered submit must land in the
// serve.steer_scatter histogram (satellite: scatter latency).
func TestSteerScatterHistogramRecords(t *testing.T) {
	rs := prefixSet(t, 32, 97)
	obs := newTelemetryObs(0)
	svc, err := New(rs.Clone(), strideBuild, Config{Workers: 2, Seed: 97, Obs: obs})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, svc)
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 128, MatchFraction: 0.7, Seed: 98})
	out := make([]int, len(trace))
	for i := 0; i < 3; i++ {
		if err := svc.ClassifySteered(trace, out); err != nil {
			t.Fatal(err)
		}
	}
	h := obs.Reg.Snapshot().Histograms[obsv.HistSteerScatter]
	if h.Count != 3 {
		t.Fatalf("steer_scatter count = %d, want 3", h.Count)
	}
}

// Every control-plane transition must land in the journal with the
// documented Gen/A/B fields: initial build, incremental commit with its
// retired generation, scoped-verify rollback, and delta fallback.
func TestJournalRecordsSwapLifecycle(t *testing.T) {
	rs := prefixSet(t, 64, 99)
	obs := newTelemetryObs(0)
	var corrupt atomic.Bool
	svc, err := New(rs.Clone(), corruptibleBuild(&corrupt), Config{Workers: 2, Incremental: true, Seed: 99, Obs: obs})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, svc)

	// The initial build journals gen 1 with the ruleset size.
	evs := obs.Journal.Snapshot()
	if len(evs) != 1 || evs[0].Kind != obsv.EventSwapCommitted || evs[0].Gen != 1 || evs[0].A != int64(rs.Len()) {
		t.Fatalf("initial journal = %+v", evs)
	}

	// A clean incremental commit retires gen 1 and commits gen 2 with the
	// incremental marker.
	ops, err := update.GenerateOps(svc.RuleSet(), 2, 990)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.ApplyOps(ops); err != nil {
		t.Fatal(err)
	}
	var committed, retired *obsv.Event
	for i, ev := range obs.Journal.Snapshot() {
		ev := ev
		if ev.Kind == obsv.EventSwapCommitted && ev.Gen == 2 {
			committed = &ev
		}
		if ev.Kind == obsv.EventGenerationRetired && ev.Gen == 1 {
			retired = &ev
		}
		_ = i
	}
	if committed == nil || retired == nil {
		t.Fatalf("incremental commit not journaled: %+v", obs.Journal.Snapshot())
	}
	if committed.B != 1 {
		t.Fatalf("incremental commit missing marker: %+v", committed)
	}

	// A corrupted delta rolls back at scoped verify (stage 2) and lands
	// through the rebuild path instead.
	corrupt.Store(true)
	donor := ruleset.Generate(ruleset.GenConfig{N: 1, Profile: ruleset.PrefixOnly, Seed: 991})
	if err := svc.ApplyOps([]update.Op{{Index: 0, Rule: donor.Rules[0]}}); err != nil {
		t.Fatal(err)
	}
	corrupt.Store(false)
	var rollback *obsv.Event
	for _, ev := range obs.Journal.Snapshot() {
		ev := ev
		if ev.Kind == obsv.EventSwapRolledBack {
			rollback = &ev
		}
	}
	if rollback == nil {
		t.Fatalf("rollback not journaled: %+v", obs.Journal.Snapshot())
	}
	if rollback.A != 2 || rollback.B != 1 {
		t.Fatalf("rollback stage/path markers wrong: %+v", rollback)
	}
	if kinds := journalKinds(obs.Journal); kinds[obsv.EventSwapCommitted] != 3 {
		t.Fatalf("swap-committed count = %d, want 3 (initial, incremental, rebuild)", kinds[obsv.EventSwapCommitted])
	}

	// An engine without a delta primitive journals the fallback.
	obs2 := newTelemetryObs(0)
	svc2, err := New(prefixSet(t, 32, 992).Clone(), linearBuild, Config{Workers: 1, Incremental: true, Seed: 992, Obs: obs2})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, svc2)
	ops2, err := update.GenerateOps(svc2.RuleSet(), 2, 993)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc2.ApplyOps(ops2); err != nil {
		t.Fatal(err)
	}
	var fallback *obsv.Event
	for _, ev := range obs2.Journal.Snapshot() {
		ev := ev
		if ev.Kind == obsv.EventDeltaFallback {
			fallback = &ev
		}
	}
	if fallback == nil || fallback.A != int64(len(ops2)) {
		t.Fatalf("delta fallback not journaled with op count: %+v", fallback)
	}
}

// A single elephant flow parks all traffic on one worker: the imbalance
// index must say so, and the skew score (top-K share x imbalance) must
// journal exactly one rebalance-candidate per excursion.
func TestImbalanceAndRebalanceCandidateEvent(t *testing.T) {
	rs := prefixSet(t, 32, 101)
	obs := newTelemetryObs(0)
	svc, err := New(rs.Clone(), strideBuild, Config{
		Workers: 4, CacheEntries: 1 << 8, Seed: 101, Obs: obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, svc)

	// One flow, repeated: steering is deterministic, so exactly one
	// worker takes every packet.
	seedTrace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 1, MatchFraction: 1, Seed: 102})
	elephant := make([]packet.Header, 256)
	for i := range elephant {
		elephant[i] = seedTrace[0]
	}
	out := make([]int, len(elephant))
	for i := 0; i < 4; i++ {
		if err := svc.ClassifySteered(elephant, out); err != nil {
			t.Fatal(err)
		}
	}

	idx := svc.ImbalanceIndex()
	if idx < 3.9 {
		t.Fatalf("single-flow imbalance index = %v, want ~4", idx)
	}
	loads := svc.WorkerLoads()
	busy := 0
	for _, wl := range loads {
		if wl.Classified > 0 {
			busy++
		}
	}
	if busy != 1 {
		t.Fatalf("single flow spread across %d workers: %+v", busy, loads)
	}

	var cand *obsv.Event
	for _, ev := range obs.Journal.Snapshot() {
		ev := ev
		if ev.Kind == obsv.EventRebalanceCandidate {
			cand = &ev
		}
	}
	if cand == nil {
		t.Fatalf("no rebalance-candidate journaled at score %v: %+v", svc.FlowStats().TopKShare()*idx, obs.Journal.Snapshot())
	}
	if cand.V < 2 {
		t.Fatalf("candidate score %v below default threshold", cand.V)
	}
	hot := int64(packet.SteerWorker(seedTrace[0].Key().Hash(), 4))
	if cand.A != hot {
		t.Fatalf("candidate names worker %d, steering says %d", cand.A, hot)
	}

	// Hysteresis: the score stays hot, so further samples journal nothing
	// new until the excursion clears.
	before := obs.Journal.Stats().Appended
	svc.ImbalanceIndex()
	svc.ImbalanceIndex()
	if after := obs.Journal.Stats().Appended; after != before {
		t.Fatalf("re-journaled a latched excursion: %d -> %d appends", before, after)
	}
}

// BenchmarkSteeredSubmitObserved is the CI allocation gate for the
// instrumented steered hot path: scatter histogram, prehashed private
// caches, and the heavy-hitter detector all riding one synchronous
// steered batch, on the hand-off and the inline path (steeredBenchShapes).
// Steady state must not allocate.
func BenchmarkSteeredSubmitObserved(b *testing.B) {
	for _, shape := range steeredBenchShapes {
		b.Run(shape.name, func(b *testing.B) {
			rs := prefixSet(b, 64, 103)
			obs := obsv.NewObs(nil, nil)
			svc, err := New(rs.Clone(), strideBuild, Config{
				Workers: shape.workers, CacheEntries: 1 << 12, Seed: 103, Obs: obs,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer mustClose(b, svc)
			benchSteered(b, svc, ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: shape.n, MatchFraction: 0.9, Seed: 104}))
			if svc.FlowStats().Packets() == 0 {
				b.Fatal("detector observed nothing on the instrumented path")
			}
		})
	}
}
