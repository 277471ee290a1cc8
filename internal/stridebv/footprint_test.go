package stridebv

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pktclass/internal/ruleset"
)

// An engine's state is its stage memory, summaries and entry→rule map:
// the Expanded it was built from, and that expansion's entry array, can be
// collected while the engine and a delta child of it are still live.
func TestEngineDoesNotRetainExpansion(t *testing.T) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 256, Profile: ruleset.PrefixOnly, Seed: 61, DefaultRule: true})
	donor := ruleset.Generate(ruleset.GenConfig{N: 4, Profile: ruleset.PrefixOnly, Seed: 62})
	var collected atomic.Int32
	e, child := func() (*Engine, *Engine) {
		ex := rs.Expand()
		runtime.SetFinalizer(ex, func(*ruleset.Expanded) { collected.Add(1) })
		runtime.SetFinalizer(&ex.Entries[0], func(*ruleset.Ternary) { collected.Add(1) })
		e, err := New(ex, 4)
		if err != nil {
			t.Fatal(err)
		}
		rules := make([]int, len(donor.Rules))
		entries := make([]ruleset.Ternary, len(donor.Rules))
		for i, r := range donor.Rules {
			rules[i], entries[i] = 37*i+5, r.TernaryEntries()[0]
		}
		child := applyDeltas(t, e, rules, entries)
		return e, child
	}()
	for i := 0; i < 50 && collected.Load() < 2; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := collected.Load(); got != 2 {
		t.Fatalf("%d of the expansion and its entry array were collected, want both", got)
	}
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 100, MatchFraction: 0.9, Seed: 63})
	for _, h := range trace {
		if r := e.Classify(h); r != rs.FirstMatch(h) {
			t.Fatalf("engine classifies %s as %d, want %d", h, r, rs.FirstMatch(h))
		}
	}
	runtime.KeepAlive(child)
}
