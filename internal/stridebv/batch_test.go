package stridebv

import (
	"sync"
	"testing"

	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
	"pktclass/internal/tcam"
)

// ClassifyBatch must be bit-identical to per-packet Classify, including the
// degenerate empty and single-packet batches.
func TestClassifyBatchMatchesClassify(t *testing.T) {
	rs, ex := genSet(t, 64, ruleset.FirewallProfile, 41)
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 1024, MatchFraction: 0.7, Seed: 42})
	for _, k := range []int{1, 3, 4} {
		e, err := New(ex, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 1, 7, len(trace)} {
			batch := trace[:n]
			out := make([]int, n)
			e.ClassifyBatch(batch, out)
			for i, h := range batch {
				if want := e.Classify(h); out[i] != want {
					t.Fatalf("k=%d batch[%d]: got %d want %d", k, i, out[i], want)
				}
			}
		}
	}
}

func TestRangeClassifyBatchMatchesClassify(t *testing.T) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 48, Profile: ruleset.FirewallProfile, Seed: 43, DefaultRule: true})
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 512, MatchFraction: 0.7, Seed: 44})
	e, err := NewRange(rs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, len(trace)} {
		batch := trace[:n]
		out := make([]int, n)
		e.ClassifyBatch(batch, out)
		for i, h := range batch {
			if want := e.Classify(h); out[i] != want {
				t.Fatalf("batch[%d]: got %d want %d", i, out[i], want)
			}
		}
	}
}

// Concurrent batches on one engine must stay correct: the scratch pool
// hands each goroutine its own workspace.
func TestClassifyBatchConcurrent(t *testing.T) {
	rs, ex := genSet(t, 64, ruleset.PrefixOnly, 45)
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 2048, MatchFraction: 0.8, Seed: 46})
	e, err := New(ex, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int, len(trace))
	for i, h := range trace {
		want[i] = rs.FirstMatch(h)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]int, len(trace))
			for rep := 0; rep < 20; rep++ {
				e.ClassifyBatch(trace, out)
				for i := range out {
					if out[i] != want[i] {
						errs <- "concurrent batch diverged from reference"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// Per-packet Classify rides the same scratch pool and must be
// allocation-free too.
func TestStrideBVClassifyZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool puts; alloc gate runs in normal builds")
	}
	rs, ex := genSet(t, 128, ruleset.PrefixOnly, 49)
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 64, MatchFraction: 0.9, Seed: 50})
	e, err := New(ex, 4)
	if err != nil {
		t.Fatal(err)
	}
	e.Classify(trace[0]) // warm the scratch pool
	if allocs := testing.AllocsPerRun(50, func() {
		for _, h := range trace {
			e.Classify(h)
		}
	}); allocs != 0 {
		t.Fatalf("Classify allocates %.2f per %d packets, want 0", allocs, len(trace))
	}
}

// The cycle-accurate pipeline recycles partial-result vectors through a
// free list: once it is warm, steady-state stepping allocates only the
// encoder's bounded per-cycle state, never a fresh Ne-bit vector per packet.
func TestPipelineRunMatchesEngine(t *testing.T) {
	rs, ex := genSet(t, 64, ruleset.FirewallProfile, 51)
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 300, MatchFraction: 0.8, Seed: 52})
	e, err := New(ex, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(e)
	keys := make([]packet.Key, len(trace))
	for i, h := range trace {
		keys[i] = h.Key()
	}
	results, _ := p.Run(keys)
	for i, h := range trace {
		if want := e.Classify(h); results[i] != want {
			t.Fatalf("pipeline[%d]: got %d want %d", i, results[i], want)
		}
	}
}

// Regression for the shared-Expanded mutation bug: an Engine and a
// tcam.Behavioral built over the *same* Expanded are the differential pair
// the serving layer verifies with. UpdateEntry used to write through to the
// shared Entries slice, silently dragging the TCAM reference along with the
// update and defeating verification.
func TestUpdateEntryDoesNotMutateSharedExpanded(t *testing.T) {
	rs, ex := genSet(t, 32, ruleset.PrefixOnly, 53)
	e, err := New(ex, 4)
	if err != nil {
		t.Fatal(err)
	}
	ref := tcam.NewBehavioral(ex)

	// Find an entry and a header that hits it, so the update observably
	// changes the engine's answer.
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 500, MatchFraction: 1, Seed: 54})
	victim := -1
	var hit packet.Header
	for _, h := range trace {
		if r := e.Classify(h); r >= 0 {
			victim, hit = r, h
			break
		}
	}
	if victim < 0 {
		t.Skip("no matching header in directed trace")
	}
	before := ex.Entries[victim]
	// Replace the victim entry with one that can never match (its own
	// value with every bit flipped, fully masked).
	repl := before
	for i := range repl.Value {
		repl.Value[i] = ^before.Value[i]
		repl.Mask[i] = 0xff
	}
	if err := e.UpdateEntry(victim, repl); err != nil {
		t.Fatal(err)
	}

	if got := ref.Classify(hit); got != victim {
		t.Fatalf("tcam reference over shared Expanded changed: got %d want %d", got, victim)
	}
	if ex.Entries[victim] != before {
		t.Fatal("caller's Expanded was mutated by UpdateEntry")
	}
	if got := e.Classify(hit); got == victim {
		t.Fatal("engine still matches the replaced entry")
	}
	// The engine agrees with a build over the test's own expansion with the
	// update applied, and writing the old entry back restores the original.
	checkMatchVectors(t, e, applied(ex, []int{victim}, []ruleset.Ternary{repl}), trace)
	if err := e.UpdateEntry(victim, before); err != nil {
		t.Fatal(err)
	}
	checkMatchVectors(t, e, ex, trace)
}

// checkMatchVectors fails unless e's match vector equals that of a fresh
// build over want for every header of trace.
func checkMatchVectors(t *testing.T, e *Engine, want *ruleset.Expanded, trace []packet.Header) {
	t.Helper()
	fresh, err := New(want, e.Stride())
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range trace {
		if !e.MatchVector(h.Key()).Equal(fresh.MatchVector(h.Key())) {
			t.Fatalf("engine and a fresh build disagree for %s", h)
		}
	}
}
