package stridebv

import (
	"math/rand"
	"testing"

	"pktclass/internal/ruleset"
)

// applyDeltas is ApplyDeltas for tests that inspect the child's internals.
func applyDeltas(t testing.TB, e *Engine, rules []int, entries []ruleset.Ternary) *Engine {
	t.Helper()
	child, err := e.ApplyDeltas(rules, entries)
	if err != nil {
		t.Fatal(err)
	}
	return child.(*Engine)
}

// rewriteEntry reprograms entry j of e in place through rewrite, with j
// alone dirty: the write ApplyDeltas makes per touched group, here on an
// engine that owns its storage and that no reader holds.
func rewriteEntry(e *Engine, j int, entry *ruleset.Ternary) {
	e.rewrite(j>>6, 1<<uint(j&63), func(int) (value, mask []byte, valid bool) { return pattern(entry) })
}

// deltaFixture generates a prefix-only set, an engine over it, and a batch
// of single-entry replacements with the post-delta ruleset they produce.
func deltaFixture(t testing.TB, n, deltas int, seed int64) (*Engine, *ruleset.RuleSet, []int, []ruleset.Ternary) {
	t.Helper()
	rs, ex := genSet(t, n, ruleset.PrefixOnly, seed)
	e, err := New(ex, 4)
	if err != nil {
		t.Fatal(err)
	}
	donor := ruleset.Generate(ruleset.GenConfig{N: deltas, Profile: ruleset.PrefixOnly, Seed: seed + 1})
	rng := rand.New(rand.NewSource(seed + 2))
	next := rs.Clone()
	rules := make([]int, deltas)
	entries := make([]ruleset.Ternary, deltas)
	for i := 0; i < deltas; i++ {
		j := rng.Intn(rs.Len())
		rules[i] = j
		te := donor.Rules[i].TernaryEntries()
		if len(te) != 1 {
			t.Fatalf("donor rule %d expands to %d entries", i, len(te))
		}
		entries[i] = te[0]
		//pclass:allow-mutate writing the fixture's private clone
		next.Rules[j] = donor.Rules[i]
	}
	return e, next, rules, entries
}

func TestApplyDeltasEqualsRebuild(t *testing.T) {
	e, next, rules, entries := deltaFixture(t, 64, 12, 11)
	updated := applyDeltas(t, e, rules, entries)
	rebuilt, err := New(next.Expand(), 4)
	if err != nil {
		t.Fatal(err)
	}
	trace := ruleset.GenerateTrace(next, ruleset.TraceConfig{Count: 600, MatchFraction: 0.8, Seed: 12})
	for _, h := range trace {
		if got, want := updated.Classify(h), rebuilt.Classify(h); got != want {
			t.Fatalf("delta engine %d != rebuilt %d for %s", got, want, h)
		}
		if got, want := updated.Classify(h), next.FirstMatch(h); got != want {
			t.Fatalf("delta engine %d != linear %d for %s", got, want, h)
		}
	}
}

func TestApplyDeltasLeavesReceiverUntouched(t *testing.T) {
	e, _, rules, entries := deltaFixture(t, 48, 8, 13)
	rs, _ := genSet(t, 48, ruleset.PrefixOnly, 13)
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 400, MatchFraction: 0.8, Seed: 14})
	before := make([]int, len(trace))
	for i, h := range trace {
		before[i] = e.Classify(h)
	}
	if _, err := e.ApplyDeltas(rules, entries); err != nil {
		t.Fatal(err)
	}
	for i, h := range trace {
		if got := e.Classify(h); got != before[i] {
			t.Fatalf("receiver decision changed after ApplyDeltas: %d != %d for %s", got, before[i], h)
		}
	}
}

// sharedStages reports, per stage, whether every row of a's stage block
// aliases b's (true), none does (false), or fails the test on a mix —
// copy-on-write detaches whole stage blocks, never single rows.
func sharedStages(t *testing.T, a, b *Engine) []bool {
	t.Helper()
	out := make([]bool, a.Stages())
	for s := range out {
		out[s] = a.StageVector(s, 0).SharesStorage(b.StageVector(s, 0))
		for c := 1; c < 1<<uint(a.Stride()); c++ {
			if a.StageVector(s, c).SharesStorage(b.StageVector(s, c)) != out[s] {
				t.Fatalf("stage %d is half shared: row %d disagrees with row 0", s, c)
			}
		}
	}
	return out
}

// rewriteByte returns entry with key byte i made exact-match on a value the
// old entry did not have there, so precisely the stages covering bits
// [8i, 8i+8) change their stride condition.
func rewriteByte(entry ruleset.Ternary, i int) ruleset.Ternary {
	entry.Mask[i] = 0xff
	entry.Value[i] ^= 0x5a // flips bits in both nibbles
	return entry
}

// TestApplyDeltasSharesUntouchedStages pins the copy-on-write contract at
// its granularity, the stage block: a stage some delta flips a bit in is
// copied whole, a stage the deltas leave alone still aliases the parent's
// block, and nothing a descendant writes ever shows in an ancestor.
func TestApplyDeltasSharesUntouchedStages(t *testing.T) {
	_, ex := genSet(t, 64, ruleset.PrefixOnly, 17)
	e, err := New(ex, 4)
	if err != nil {
		t.Fatal(err)
	}
	k := e.Stride()
	covers := func(s, keyByte int) bool { return s*k < 8*keyByte+8 && s*k+k > 8*keyByte }
	snapE := snapshotMem(e)

	// Child: entry 7's protocol byte (key byte 12, the last two stages).
	child := applyDeltas(t, e, []int{7}, []ruleset.Ternary{rewriteByte(ex.Entries[7], 12)})
	for s, shared := range sharedStages(t, child, e) {
		if want := !covers(s, 12); shared != want {
			t.Fatalf("child stage %d shared with parent = %v, want %v", s, shared, want)
		}
	}
	snapChild := snapshotMem(child)

	// Grandchild: entry 9's first SIP byte (the first two stages). It must
	// detach those from the child, keep the child's own protocol stages
	// shared with the child (not the grandparent), and keep the rest shared
	// all the way up.
	grand := applyDeltas(t, child, []int{9}, []ruleset.Ternary{rewriteByte(ex.Entries[9], 0)})
	withChild, withE := sharedStages(t, grand, child), sharedStages(t, grand, e)
	for s := range withChild {
		if want := !covers(s, 0); withChild[s] != want {
			t.Fatalf("grandchild stage %d shared with child = %v, want %v", s, withChild[s], want)
		}
		if want := !covers(s, 0) && !covers(s, 12); withE[s] != want {
			t.Fatalf("grandchild stage %d shared with grandparent = %v, want %v", s, withE[s], want)
		}
	}

	// Invalidating an entry on the grandchild clears a bit in every stage,
	// so the great-grandchild detaches every block and no ancestor moves.
	snapGrand := snapshotMem(grand)
	great := applyDeltas(t, grand, []int{11}, []ruleset.Ternary{ruleset.InvalidTernary()})
	for s, shared := range sharedStages(t, great, grand) {
		if shared {
			t.Fatalf("stage %d still aliases the parent after an invalidation", s)
		}
	}
	if s, c := diffMem(grand, snapGrand); s >= 0 {
		t.Fatalf("descendant write leaked into the grandchild at (stage=%d, value=%d)", s, c)
	}
	if s, c := diffMem(e, snapE); s >= 0 {
		t.Fatalf("descendant write leaked into grandparent at (stage=%d, value=%d)", s, c)
	}
	if s, c := diffMem(child, snapChild); s >= 0 {
		t.Fatalf("descendant write leaked into parent at (stage=%d, value=%d)", s, c)
	}

	// The degenerate delta — replace an entry with its current value —
	// flips no bits anywhere, so every stage must stay shared.
	self := applyDeltas(t, e, []int{3}, []ruleset.Ternary{ex.Entries[3]})
	for s, shared := range sharedStages(t, self, e) {
		if !shared {
			t.Fatalf("self-replacement cloned stage %d", s)
		}
	}
}

func TestApplyDeltasValidation(t *testing.T) {
	e, _, rules, entries := deltaFixture(t, 32, 4, 19)
	if _, err := e.ApplyDeltas(rules, entries[:len(entries)-1]); err == nil {
		t.Fatal("accepted mismatched rules/entries lengths")
	}
	bad := append([]int(nil), rules...)
	bad[0] = e.NumEntries()
	if _, err := e.ApplyDeltas(bad, entries); err == nil {
		t.Fatal("accepted out-of-range entry index")
	}
	// A range-expanded ruleset breaks the 1:1 rule/entry mapping: that is a
	// structural delta and must be rejected.
	rsFw := ruleset.Generate(ruleset.GenConfig{N: 48, Profile: ruleset.FirewallProfile, Seed: 20, DefaultRule: true})
	exFw := rsFw.Expand()
	if exFw.Len() == exFw.NumRules {
		t.Skip("firewall profile produced no range expansion at this seed")
	}
	eFw, err := New(exFw, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eFw.ApplyDeltas(rules[:1], entries[:1]); err == nil {
		t.Fatal("accepted delta on a range-expanded engine")
	}
}

// BenchmarkStrideBVRewrite is CI's 0-allocs gate on the single-entry
// rewrite, the write primitive every delta stores through (the software
// analogue of the stage-memory write port), on an engine that owns its
// storage.
func BenchmarkStrideBVRewrite(b *testing.B) {
	rs, ex := genSet(b, 2048, ruleset.PrefixOnly, 21)
	e, err := New(ex, 4)
	if err != nil {
		b.Fatal(err)
	}
	donor := ruleset.Generate(ruleset.GenConfig{N: 64, Profile: ruleset.PrefixOnly, Seed: 22})
	entries := make([]ruleset.Ternary, len(donor.Rules))
	for i, r := range donor.Rules {
		entries[i] = r.TernaryEntries()[0]
	}
	// Pre-touch so the scratch workspace's planes are made outside the
	// measured loop.
	rewriteEntry(e, 0, &entries[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rewriteEntry(e, i%rs.Len(), &entries[i%len(entries)])
	}
}

func BenchmarkStrideBVApplyDeltas8(b *testing.B) {
	e, _, rules, entries := deltaFixture(b, 2048, 8, 23)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ApplyDeltas(rules, entries); err != nil {
			b.Fatal(err)
		}
	}
}

// checkWalkOrder asserts the derived walk state of e: ones[s] is exactly
// the population of stage s, and order is a permutation of the stages,
// sparsest first.
func checkWalkOrder(t *testing.T, e *Engine) {
	t.Helper()
	seen := make([]bool, e.Stages())
	for p, s := range e.order {
		if seen[s] {
			t.Fatalf("stage %d appears twice in the walk order %v", s, e.order)
		}
		seen[s] = true
		if p > 0 && e.ones[e.order[p-1]] > e.ones[s] {
			t.Fatalf("walk order %v is not sparsest first (populations %v)", e.order, e.ones)
		}
	}
	if len(e.order) != e.Stages() {
		t.Fatalf("walk order has %d of %d stages", len(e.order), e.Stages())
	}
	for s := 0; s < e.Stages(); s++ {
		n := 0
		for c := 0; c < 1<<uint(e.Stride()); c++ {
			n += e.StageVector(s, c).Ones()
		}
		if e.ones[s] != n {
			t.Fatalf("stage %d population %d, counter says %d", s, n, e.ones[s])
		}
	}
}

// The walk order is derived from per-stage populations that rewrite keeps
// current: exact after a build, after a delta batch and after a delta on
// that child (an invalidation and a replacement), with each parent's left
// alone.
func TestWalkOrderTracksStagePopulations(t *testing.T) {
	e, _, rules, entries := deltaFixture(t, 200, 6, 31)
	checkWalkOrder(t, e)
	parentOnes := append([]int(nil), e.ones...)
	child := applyDeltas(t, e, rules, entries)
	checkWalkOrder(t, child)
	checkWalkOrder(t, e)
	for s, n := range parentOnes {
		if e.ones[s] != n {
			t.Fatalf("ApplyDeltas moved the parent's stage %d population", s)
		}
	}
	childOnes := append([]int(nil), child.ones...)
	grand := applyDeltas(t, child, []int{rules[0], 5}, []ruleset.Ternary{ruleset.InvalidTernary(), entries[1]})
	checkWalkOrder(t, grand)
	checkWalkOrder(t, child)
	for s, n := range childOnes {
		if child.ones[s] != n {
			t.Fatalf("ApplyDeltas moved the child's stage %d population", s)
		}
	}
}
