package stridebv

import (
	"math/rand"
	"slices"
	"testing"

	"pktclass/internal/bitvec"
	"pktclass/internal/ruleset"
)

// snapshotMem deep-copies every stage vector of the engine.
func snapshotMem(e *Engine) [][]bitvec.Vector {
	out := make([][]bitvec.Vector, e.Stages())
	for s := range out {
		out[s] = make([]bitvec.Vector, 1<<uint(e.Stride()))
		for c := range out[s] {
			out[s][c] = e.StageVector(s, c).Clone()
		}
	}
	return out
}

// diffMem returns the first (stage, value) whose stored vector differs from
// the snapshot, or (-1, -1).
func diffMem(e *Engine, snap [][]bitvec.Vector) (int, int) {
	for s := range snap {
		for c := range snap[s] {
			if !e.StageVector(s, c).Equal(snap[s][c]) {
				return s, c
			}
		}
	}
	return -1, -1
}

// TestUpdateOnDeltaChildLeavesParentIntact is the regression test for the
// copy-on-write aliasing bug: a delta-derived engine shares untouched stage
// vectors with its parent, and an in-place UpdateEntry/InvalidateEntry on
// the child used to write straight through that shared storage, corrupting
// the engine concurrent readers still hold. On the pre-fix code the parent
// snapshot comparison below fails.
func TestUpdateOnDeltaChildLeavesParentIntact(t *testing.T) {
	parent, rs, rules, entries := deltaFixture(t, 256, 4, 401)
	snap, lead := snapshotMem(parent), slices.Clone(parent.lead)
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 400, MatchFraction: 0.8, Seed: 402})
	want := make([]int, len(trace))
	for i, h := range trace {
		want[i] = parent.Classify(h)
	}

	child := applyDeltas(t, parent, rules, entries)

	// In-place writes on the child: replace entries the delta batch did not
	// touch (their vectors all still alias the parent), then invalidate a
	// couple more.
	donor := ruleset.Generate(ruleset.GenConfig{N: 8, Profile: ruleset.PrefixOnly, Seed: 403})
	rng := rand.New(rand.NewSource(404))
	touched := map[int]bool{}
	for _, j := range rules {
		touched[j] = true
	}
	wrote := 0
	for _, r := range donor.Rules {
		j := rng.Intn(rs.Len())
		if touched[j] {
			continue
		}
		touched[j] = true
		te := r.TernaryEntries()
		if len(te) != 1 {
			t.Fatalf("donor rule expands to %d entries", len(te))
		}
		if wrote%3 == 2 {
			if err := child.InvalidateEntry(j); err != nil {
				t.Fatal(err)
			}
		} else if err := child.UpdateEntry(j, te[0]); err != nil {
			t.Fatal(err)
		}
		wrote++
	}
	if wrote < 4 {
		t.Fatalf("only %d in-place writes landed; fixture too small", wrote)
	}

	if s, c := diffMem(parent, snap); s >= 0 {
		t.Fatalf("child write leaked into parent stage memory at (stage=%d, value=%d)", s, c)
	}
	if &child.lead[0] == &parent.lead[0] || !slices.Equal(parent.lead, lead) {
		t.Fatal("the child shares or wrote the parent's lead summaries")
	}
	for i, h := range trace {
		if got := parent.Classify(h); got != want[i] {
			t.Fatalf("parent classify changed after child writes: header %d got %d want %d", i, got, want[i])
		}
	}
}

// TestApplyDeltasOnDeltaChild covers the chained case: a second ApplyDeltas
// on a delta-derived child must also un-alias before its single-bit writes
// (the grandparent and parent both stay intact and correct).
func TestApplyDeltasOnDeltaChild(t *testing.T) {
	parent, rs, rules, entries := deltaFixture(t, 128, 3, 411)
	snapParent, leadParent := snapshotMem(parent), slices.Clone(parent.lead)
	child := applyDeltas(t, parent, rules, entries)
	snapChild, leadChild := snapshotMem(child), slices.Clone(child.lead)

	donor := ruleset.Generate(ruleset.GenConfig{N: 3, Profile: ruleset.PrefixOnly, Seed: 412})
	rng := rand.New(rand.NewSource(413))
	var rules2 []int
	var entries2 []ruleset.Ternary
	for _, r := range donor.Rules {
		rules2 = append(rules2, rng.Intn(rs.Len()))
		entries2 = append(entries2, r.TernaryEntries()[0])
	}
	grandchild := applyDeltas(t, child, rules2, entries2)
	if err := grandchild.InvalidateEntry(rng.Intn(rs.Len())); err != nil {
		t.Fatal(err)
	}
	if s, c := diffMem(parent, snapParent); s >= 0 {
		t.Fatalf("grandchild write leaked into grandparent at (stage=%d, value=%d)", s, c)
	}
	if s, c := diffMem(child, snapChild); s >= 0 {
		t.Fatalf("grandchild write leaked into parent at (stage=%d, value=%d)", s, c)
	}
	if !slices.Equal(parent.lead, leadParent) || !slices.Equal(child.lead, leadChild) {
		t.Fatal("grandchild writes leaked into an ancestor's lead summaries")
	}
}

// TestInvalidateEntryRecorded is the regression test for the resurrection
// bug: InvalidateEntry used to clear stage memory but leave the entry table
// untouched, so a rebuild from the engine's view brought the entry back to
// life. The engine keeps no entry table now — its stage memory is the
// record — so the invalidation must agree with a rebuild over the test's
// own expansion with the invalidation applied and survive a rewrite of its
// group, which takes every entry but the dirty one from the stored words.
func TestInvalidateEntryRecorded(t *testing.T) {
	rs, ex := genSet(t, 96, ruleset.PrefixOnly, 421)
	e, err := New(ex, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Pick an entry that actually wins for some header so resurrection is
	// observable.
	var victim int = -1
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 300, MatchFraction: 1, Seed: 423})
	for _, h := range trace {
		if j := e.MatchVector(h.Key()).FirstSet(); j >= 0 && j < rs.Len()-1 {
			victim = j
			break
		}
	}
	if victim < 0 {
		t.Fatal("no winning entry found")
	}
	if err := e.InvalidateEntry(victim); err != nil {
		t.Fatal(err)
	}
	if ex.Entries[victim].Invalid {
		t.Fatal("invalidation leaked into the caller's shared Expanded")
	}
	for _, h := range trace {
		if got := e.MatchVector(h.Key()); got.Get(victim) {
			t.Fatalf("invalidated entry %d still matches %s", victim, h)
		}
	}

	// A rebuild over the test's own expansion with the invalidation applied
	// agrees with the engine.
	rebuilt, err := New(applied(ex, []int{victim}, []ruleset.Ternary{ruleset.InvalidTernary()}), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range trace {
		if !rebuilt.MatchVector(h.Key()).Equal(e.MatchVector(h.Key())) {
			t.Fatalf("engine and rebuild disagree for %s", h)
		}
	}

	// Rewriting the victim's neighbour re-derives only the neighbour.
	nb := victim ^ 1
	if err := e.UpdateEntry(nb, ex.Entries[nb]); err != nil {
		t.Fatal(err)
	}
	for _, h := range trace {
		if e.MatchVector(h.Key()).Get(victim) {
			t.Fatalf("a rewrite of its group resurrected invalidated entry %d", victim)
		}
		if got, want := e.Classify(h), rebuilt.Classify(h); got != want {
			t.Fatalf("engine diverges from the rebuild after the rewrite: got %d want %d for %s", got, want, h)
		}
	}
}

// applied returns a copy of ex with entries[i] written at rules[i], in
// order: the expansion a test keeps beside an engine it updates.
func applied(ex *ruleset.Expanded, rules []int, entries []ruleset.Ternary) *ruleset.Expanded {
	table := slices.Clone(ex.Entries)
	for i, j := range rules {
		table[j] = entries[i]
	}
	return &ruleset.Expanded{Entries: table, Parent: ex.Parent, NumRules: ex.NumRules}
}

// TestInvalidTernarySemantics pins down the never-match entry across the
// primitive layers: MatchesKey, the bit-probe oracle, and the stage memory
// an engine builds for it.
func TestInvalidTernarySemantics(t *testing.T) {
	inv := ruleset.InvalidTernary()
	rng := rand.New(rand.NewSource(431))
	for i := 0; i < 50; i++ {
		if inv.MatchesKey(ruleset.RandomHeader(rng).Key()) {
			t.Fatal("invalid ternary matched a key")
		}
	}
	_, ex := genSet(t, 16, ruleset.PrefixOnly, 432)
	withInv := &ruleset.Expanded{
		Entries:  append([]ruleset.Ternary(nil), ex.Entries...),
		Parent:   ex.Parent,
		NumRules: ex.NumRules,
	}
	//pclass:allow-mutate writing the private copy made above
	withInv.Entries[5] = inv
	e, err := New(withInv, 4)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < e.Stages(); s++ {
		for c := 0; c < 1<<uint(e.Stride()); c++ {
			if compatible(inv, e.Stride(), s, c) {
				t.Fatalf("invalid ternary compatible at stage %d value %d", s, c)
			}
			if e.StageVector(s, c).Get(5) {
				t.Fatalf("invalid entry's bit set at stage %d value %d", s, c)
			}
		}
	}
}
