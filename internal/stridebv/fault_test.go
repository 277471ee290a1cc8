package stridebv

// Fault-injection tests: FPGA configuration and block memories suffer
// single-event upsets (SEUs). These tests flip single bits in the live
// stage memories and assert that (a) the corruption is externally
// observable through differential verification — the recovery story for a
// deployed engine is exactly the scrubbing/re-verification loop these
// tests model — and (b) rewriting the affected entry (the incremental
// update path) fully repairs the engine.

import (
	"math/rand"
	"testing"

	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
)

// corruptOne flips the stage-memory bit that the header's stride value
// addresses for the entry it matches, guaranteeing an observable fault.
func corruptOne(e *Engine, h packet.Header, entry int) (stage, value int) {
	k := h.Key()
	stage = e.Stages() / 2
	value = k.Stride(stage*e.Stride(), e.Stride())
	v := e.StageVector(stage, value)
	v.SetTo(entry, !v.Get(entry))
	// Direct stage-memory writes bypass the summary-index maintenance the
	// supported update paths perform; recompute it so the classify path
	// sees the upset rather than a stale acceleration structure.
	e.RefreshSummaries()
	return stage, value
}

func TestFaultIsObservable(t *testing.T) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 64, Profile: ruleset.PrefixOnly, Seed: 61, DefaultRule: true})
	ex := rs.Expand()
	e, err := New(ex, 4)
	if err != nil {
		t.Fatal(err)
	}
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 200, MatchFraction: 1, Seed: 62})
	// Find a header and the entry that wins for it.
	var victim packet.Header
	entry := -1
	for _, h := range trace {
		if i := e.MatchVector(h.Key()).FirstSet(); i >= 0 {
			victim, entry = h, i
			break
		}
	}
	if entry < 0 {
		t.Fatal("no matching header found")
	}
	// Drop the winning entry's bit on the victim's path: the result for
	// the victim must change (missed match — the dangerous SEU class).
	before := e.Classify(victim)
	corruptOne(e, victim, entry)
	after := e.Classify(victim)
	if after == before {
		t.Fatalf("1->0 upset not observable: %d == %d", before, after)
	}
}

func TestFaultOvermatchObservable(t *testing.T) {
	// Flip a 0 to 1: a non-matching entry can now win, visible as a
	// higher-priority (lower index) result than the truth.
	rs := ruleset.Generate(ruleset.GenConfig{N: 64, Profile: ruleset.PrefixOnly, Seed: 63, DefaultRule: true})
	ex := rs.Expand()
	e, err := New(ex, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(64))
	h := ruleset.RandomHeader(rng)
	truth := rs.FirstMatch(h)
	// Set entry 0's bit along every stage of h's path: entry 0 now falsely
	// matches h (unless it already did).
	if e.MatchVector(h.Key()).Get(0) {
		t.Skip("entry 0 already matches the probe header")
	}
	k := h.Key()
	for s := 0; s < e.Stages(); s++ {
		e.StageVector(s, k.Stride(s*e.Stride(), e.Stride())).Set(0)
	}
	e.RefreshSummaries()
	if got := e.Classify(h); got != 0 || got == truth {
		t.Fatalf("multi-bit overmatch fault gave %d (truth %d)", got, truth)
	}
}

func TestFaultRepairByRewrite(t *testing.T) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 64, Profile: ruleset.PrefixOnly, Seed: 65, DefaultRule: true})
	ex := rs.Expand()
	e, err := New(ex, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(66))
	// Spray random single-bit upsets across the stage memories.
	for i := 0; i < 50; i++ {
		s := rng.Intn(e.Stages())
		c := rng.Intn(1 << uint(e.Stride()))
		j := rng.Intn(ex.Len())
		v := e.StageVector(s, c)
		v.SetTo(j, !v.Get(j))
	}
	// Scrub: rewrite every entry, one at a time, through the one writer of
	// stage memory; the engine owns its storage and no reader holds it.
	for j := range ex.Entries {
		rewriteEntry(e, j, &ex.Entries[j])
	}
	// The repaired engine must match the reference everywhere.
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 500, MatchFraction: 0.8, Seed: 67})
	for _, h := range trace {
		if got, want := e.Classify(h), rs.FirstMatch(h); got != want {
			t.Fatalf("after scrub: %d != %d for %s", got, want, h)
		}
	}
}
