package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pktclass/internal/core"
	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
	"pktclass/internal/stridebv"
	"pktclass/internal/update"
)

// corruptible is a StrideBV engine whose delta path, while armed, applies
// an entry matching only the all-zero header in place of the first delta:
// the updated engine diverges from the ruleset the update produced, the
// failure mode the scoped verify exists to catch. Its children share the
// flag, so arming it after earlier swaps still takes effect.
type corruptible struct {
	*stridebv.Engine
	armed *atomic.Bool
}

func (c corruptible) ApplyDeltas(rules []int, entries []ruleset.Ternary) (core.Engine, error) {
	if c.armed.Load() {
		var dead ruleset.Ternary
		for i := range dead.Mask {
			dead.Mask[i] = 0xFF
		}
		entries = append([]ruleset.Ternary{dead}, entries[1:]...)
	}
	child, err := c.Engine.ApplyDeltas(rules, entries)
	if err != nil {
		return nil, err
	}
	return corruptible{child.(*stridebv.Engine), c.armed}, nil
}

// corruptibleBuild builds StrideBV engines whose delta paths share armed.
func corruptibleBuild(armed *atomic.Bool) BuildFunc {
	return func(rs *ruleset.RuleSet) (core.Engine, error) {
		e, err := stridebv.New(rs.Expand(), 4)
		if err != nil {
			return nil, err
		}
		return corruptible{e, armed}, nil
	}
}

// TestIncrementalApplyClassifiesLikeReference drives real rule
// replacements through the O(delta) path and checks both sides of the
// contract: every post-swap classification matches the linear reference of
// the current ruleset, and the swaps actually took the incremental route
// (no shadow rebuilds).
func TestIncrementalApplyClassifiesLikeReference(t *testing.T) {
	rs := prefixSet(t, 64, 51)
	svc, err := New(rs.Clone(), strideBuild, Config{Workers: 2, Incremental: true, Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, svc)
	ctx := context.Background()
	for n := 0; n < 20; n++ {
		ops, err := update.GenerateOps(svc.RuleSet(), 4, int64(100+n))
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.ApplyOps(ops); err != nil {
			t.Fatal(err)
		}
		cur := svc.RuleSet()
		trace := ruleset.GenerateTrace(cur, ruleset.TraceConfig{Count: 200, MatchFraction: 0.8, Seed: int64(200 + n)})
		got, err := svc.Classify(ctx, trace)
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range trace {
			if want := cur.FirstMatch(h); got[i] != want {
				t.Fatalf("swap %d packet %d: got %d want %d", n, i, got[i], want)
			}
		}
	}
	c := svc.Counters()
	if c.IncrementalSwaps != 20 {
		t.Fatalf("incremental swaps = %d, want 20", c.IncrementalSwaps)
	}
	if c.Swaps != 0 || c.IncrementalRollbacks != 0 || c.IncrementalFallbacks != 0 {
		t.Fatalf("unexpected rebuild-path activity: %+v", c)
	}
}

// TestIncrementalRollbackOnBadDelta injects a corrupted delta through a
// corruptible engine: the engine applies a different entry than the ruleset
// records, the scoped verify catches the divergence, the incremental
// attempt rolls back, and the update still lands through the
// shadow-rebuild path. This is the acceptance gate for scoped
// verification.
func TestIncrementalRollbackOnBadDelta(t *testing.T) {
	rs := prefixSet(t, 64, 53)
	var armed atomic.Bool
	armed.Store(true)
	svc, err := New(rs.Clone(), corruptibleBuild(&armed), Config{Workers: 2, Incremental: true, Seed: 54})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, svc)
	// Replace rule 0 (highest priority): a directed probe into the new
	// rule's region must resolve to rule 0 under the linear reference, so
	// the corrupted engine — whose row 0 can no longer match it —
	// deterministically diverges.
	donor := ruleset.Generate(ruleset.GenConfig{N: 1, Profile: ruleset.PrefixOnly, Seed: 55})
	if err := svc.ApplyOps([]update.Op{{Index: 0, Rule: donor.Rules[0]}}); err != nil {
		t.Fatalf("update should have landed via rebuild fallback: %v", err)
	}
	c := svc.Counters()
	if c.IncrementalRollbacks != 1 {
		t.Fatalf("incremental rollbacks = %d, want 1", c.IncrementalRollbacks)
	}
	if c.IncrementalSwaps != 0 {
		t.Fatalf("incremental swaps = %d, want 0", c.IncrementalSwaps)
	}
	if c.Swaps != 1 {
		t.Fatalf("rebuild swaps = %d, want 1", c.Swaps)
	}
	// The rebuilt engine serves the true post-update ruleset.
	cur := svc.RuleSet()
	trace := ruleset.GenerateTrace(cur, ruleset.TraceConfig{Count: 300, MatchFraction: 0.8, Seed: 56})
	got, err := svc.Classify(context.Background(), trace)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range trace {
		if want := cur.FirstMatch(h); got[i] != want {
			t.Fatalf("post-rollback packet %d: got %d want %d", i, got[i], want)
		}
	}
}

// TestIncrementalFallbackForUnsupportedEngine: the linear engine has no
// delta primitive, so every update under Incremental must count a
// fallback and land through the rebuild path.
func TestIncrementalFallbackForUnsupportedEngine(t *testing.T) {
	rs := prefixSet(t, 32, 57)
	svc, err := New(rs.Clone(), linearBuild, Config{Workers: 1, Incremental: true, Seed: 58})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, svc)
	for n := 0; n < 3; n++ {
		ops, err := update.GenerateOps(svc.RuleSet(), 2, int64(300+n))
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.ApplyOps(ops); err != nil {
			t.Fatal(err)
		}
	}
	c := svc.Counters()
	if c.IncrementalFallbacks != 3 || c.Swaps != 3 || c.IncrementalSwaps != 0 {
		t.Fatalf("fallback accounting wrong: %+v", c)
	}
}

// TestIncrementalSwapRetiresCacheEntries: an incremental swap must re-wrap
// the engine under a fresh flow-cache generation, so decisions cached
// against the pre-delta engine cannot leak through after the swap.
func TestIncrementalSwapRetiresCacheEntries(t *testing.T) {
	rs := prefixSet(t, 48, 59)
	svc, err := New(rs.Clone(), strideBuild, Config{Workers: 1, Incremental: true, CacheEntries: 4096, Seed: 60})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, svc)
	ctx := context.Background()
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 500, MatchFraction: 0.9, Seed: 61})
	// Warm the cache with pre-update decisions.
	if _, err := svc.Classify(ctx, trace); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 5; n++ {
		ops, err := update.GenerateOps(svc.RuleSet(), 8, int64(400+n))
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.ApplyOps(ops); err != nil {
			t.Fatal(err)
		}
	}
	c := svc.Counters()
	if c.IncrementalSwaps != 5 {
		t.Fatalf("incremental swaps = %d, want 5", c.IncrementalSwaps)
	}
	// Replay the same flows: every answer must reflect the updated
	// ruleset, not the cached pre-update generation.
	cur := svc.RuleSet()
	got, err := svc.Classify(ctx, trace)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range trace {
		if want := cur.FirstMatch(h); got[i] != want {
			t.Fatalf("stale cache decision after incremental swap: packet %d got %d want %d", i, got[i], want)
		}
	}
}

// TestRacedIncrementalRebuildInterleaving is the differential property
// test under -race: readers race an updater that alternates incremental
// applies with full rebuild reloads, and every completed batch must be
// consistent with the linear reference of SOME committed ruleset version
// in the window the batch was in flight — anything else means a reader
// observed a half-applied update.
func TestRacedIncrementalRebuildInterleaving(t *testing.T) {
	const swaps = 30
	rs := prefixSet(t, 48, 63)
	svc, err := New(rs.Clone(), strideBuild, Config{Workers: 4, QueueDepth: 8, Incremental: true, Seed: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, svc)

	// versions records every committed ruleset in commit order: the
	// updater appends right after each ApplyOps/Reload returns, so a
	// version at index i was committed no later than any version at j > i.
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
				ops, err := update.GenerateOps(svc.RuleSet(), 4, int64(500+n))
				if err != nil {
					updaterErr = err
					return
				}
				if err := svc.ApplyOps(ops); err != nil {
					updaterErr = err
					return
				}
			} else {
				next := ruleset.Generate(ruleset.GenConfig{N: 48, Profile: ruleset.PrefixOnly, Seed: int64(600 + n), DefaultRule: true})
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

	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 1024, MatchFraction: 0.7, Seed: 65})
	consistent := func(v *ruleset.RuleSet, hdrs []packet.Header, got []int) bool {
		for i, h := range hdrs {
			if got[i] != v.FirstMatch(h) {
				return false
			}
		}
		return true
	}
	readers := 3
	readerErrs := make(chan string, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			ctx := context.Background()
			for round := 0; round < 40; round++ {
				lo := ((off + round) * 32) % (len(trace) - 32)
				hdrs := trace[lo : lo+32]
				// The engine serving this batch is a version committed at
				// or after index loIdx (the last version already appended
				// when we submit) — later versions appear at higher
				// indices, so the consistency window only extends forward.
				loIdx := snapshotLen() - 1
				got, err := svc.Classify(ctx, hdrs)
				if err != nil {
					readerErrs <- err.Error()
					return
				}
				// The serving version is appended shortly after its commit;
				// retry the window check briefly to let the append land.
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
					readerErrs <- "batch inconsistent with every committed ruleset version in its window"
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
	c := svc.Counters()
	if c.IncrementalSwaps == 0 {
		t.Fatalf("no incremental swaps landed: %+v", c)
	}
	if c.Swaps == 0 {
		t.Fatalf("no rebuild swaps landed: %+v", c)
	}
	if c.IncrementalRollbacks != 0 || c.FailedSwaps != 0 {
		t.Fatalf("unexpected rollbacks: %+v", c)
	}
}

// TestNoOpApplyDoesNotSwap pins the ApplyToRuleSet no-op contract end to
// end: an empty op list must not build, verify, or swap anything.
func TestNoOpApplyDoesNotSwap(t *testing.T) {
	rs := prefixSet(t, 16, 67)
	builds := 0
	build := func(r *ruleset.RuleSet) (core.Engine, error) {
		builds++
		return core.NewLinear(r), nil
	}
	svc, err := New(rs.Clone(), build, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, svc)
	if err := svc.ApplyOps(nil); err != nil {
		t.Fatal(err)
	}
	if builds != 1 {
		t.Fatalf("no-op update triggered a rebuild: %d builds", builds)
	}
	c := svc.Counters()
	if c.Swaps != 0 || c.IncrementalSwaps != 0 || c.InvalidOps != 0 {
		t.Fatalf("no-op update touched swap counters: %+v", c)
	}
}
