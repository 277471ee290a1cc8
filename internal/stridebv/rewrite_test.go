package stridebv

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"pktclass/internal/ruleset"
)

// checkFresh fails unless e's stage memory is exactly that of a fresh New
// over want: stage blocks, lead summaries (those of e's own walk order
// derived from its stored words, and after the reorder those of a fresh
// build), populations, the walk order once e is reordered (in-place updates
// leave it stale) and the image bytes.
func checkFresh(t *testing.T, name string, e *Engine, want []ruleset.Ternary) {
	t.Helper()
	parent := make([]int, len(e.parent))
	for j, p := range e.parent {
		parent[j] = int(p)
	}
	fresh, err := New(&ruleset.Expanded{
		Entries:  append([]ruleset.Ternary(nil), want...),
		Parent:   parent,
		NumRules: e.numRules,
	}, e.k)
	if err != nil {
		t.Fatal(err)
	}
	for s := range fresh.blk {
		for i, word := range fresh.blk[s] {
			if e.blk[s][i] != word {
				t.Fatalf("%s: stage %d row %d word %d is %#x, a fresh build has %#x",
					name, s, i/e.words, i%e.words, e.blk[s][i], word)
			}
		}
	}
	if !reflect.DeepEqual(e.lead, e.DeriveLead()) {
		t.Fatalf("%s: lead summaries differ from those of the stored words under order %v", name, e.order)
	}
	e.Reorder()
	if !reflect.DeepEqual(e.ones, fresh.ones) || !reflect.DeepEqual(e.order, fresh.order) {
		t.Fatalf("%s: populations %v / %v, order %v / %v", name, e.ones, fresh.ones, e.order, fresh.order)
	}
	if !reflect.DeepEqual(e.lead, fresh.lead) {
		t.Fatalf("%s: lead summaries differ from a fresh build's", name)
	}
	var got, ref bytes.Buffer
	if err := e.WriteImage(&got); err != nil {
		t.Fatal(err)
	}
	if err := fresh.WriteImage(&ref); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), ref.Bytes()) {
		t.Fatalf("%s: image differs from a fresh build's", name)
	}
}

// halfShared reports whether e is a delta child with some stages still
// aliasing its parent and some detached.
func halfShared(e *Engine) bool {
	var shared, own bool
	for _, sh := range e.shared {
		shared, own = shared || sh, own || !sh
	}
	return shared && own
}

// TestIncrementalRewritesEqualFreshBuild: any sequence of UpdateEntry,
// InvalidateEntry and ApplyDeltas leaves stage memory exactly as a fresh
// New over the resulting entry list would build it, and every engine a
// delta was derived from exactly as it was. The sequences start with a
// write to entry Ne−1 (in a partial last word) and a batch that repeats an
// index (the last delta wins), chain delta children and grandchildren —
// one-byte rewrites leave stages half shared.
func TestIncrementalRewritesEqualFreshBuild(t *testing.T) {
	for _, k := range []int{3, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			rewriteSequence(t, k, seed)
		}
	}
}

func rewriteSequence(t *testing.T, k int, seed int64) {
	const ne = 200 // four words, eight entries in the last
	_, ex := genSet(t, ne, ruleset.PrefixOnly, seed)
	if ex.Len() != ne {
		t.Fatalf("fixture expands to %d entries, want %d", ex.Len(), ne)
	}
	cur, err := New(ex, k)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]ruleset.Ternary(nil), ex.Entries...)
	donor := ruleset.Generate(ruleset.GenConfig{N: 64, Profile: ruleset.PrefixOnly, Seed: seed + 100})
	rng := rand.New(rand.NewSource(seed))
	// draw returns a replacement for entry j: another rule's entry, the
	// never-match entry, the entry itself, or the entry with one key byte
	// made exact on a new value (only that byte's stages change).
	draw := func(j int) ruleset.Ternary {
		switch rng.Intn(4) {
		case 0:
			return donor.Rules[rng.Intn(donor.Len())].TernaryEntries()[0]
		case 1:
			return ruleset.InvalidTernary()
		case 2:
			return want[j]
		}
		return rewriteByte(want[j], rng.Intn(13))
	}
	index := func() int {
		if rng.Intn(4) == 0 {
			return ne - 1
		}
		return rng.Intn(ne)
	}
	type frozen struct {
		e    *Engine
		want []ruleset.Ternary
	}
	var ancestors []frozen
	var halfParents int
	apply := func(rules []int) {
		entries := make([]ruleset.Ternary, len(rules))
		for i, j := range rules {
			entries[i] = draw(j)
		}
		child := applyDeltas(t, cur, rules, entries)
		if halfShared(cur) {
			halfParents++
		}
		ancestors = append(ancestors, frozen{cur, append([]ruleset.Ternary(nil), want...)})
		for i, j := range rules {
			want[j] = entries[i]
		}
		cur = child
	}
	for step := 0; step < 40; step++ {
		name := fmt.Sprintf("k=%d seed=%d step %d", k, seed, step)
		switch {
		case step == 0:
			entry := draw(ne - 1)
			if err := cur.UpdateEntry(ne-1, entry); err != nil {
				t.Fatal(err)
			}
			want[ne-1] = entry
		case step == 1:
			apply([]int{ne - 1, 3, ne - 1, 3})
		default:
			switch rng.Intn(3) {
			case 0:
				j := index()
				entry := draw(j)
				if err := cur.UpdateEntry(j, entry); err != nil {
					t.Fatal(err)
				}
				want[j] = entry
			case 1:
				j := index()
				if err := cur.InvalidateEntry(j); err != nil {
					t.Fatal(err)
				}
				want[j] = ruleset.InvalidTernary()
			case 2:
				rules := make([]int, 1+rng.Intn(3))
				for i := range rules {
					rules[i] = index()
				}
				apply(rules)
			}
		}
		checkFresh(t, name, cur, want)
	}
	for i, a := range ancestors {
		checkFresh(t, fmt.Sprintf("k=%d seed=%d ancestor %d", k, seed, i), a.e, a.want)
	}
	if halfParents == 0 {
		t.Fatalf("k=%d seed=%d: no delta on a half-shared engine", k, seed)
	}
}

// changedWords counts the stage-memory words of e that differ from before —
// the words the rewrites between the two stored — and the bits that differ,
// the stores of a bit-at-a-time writer.
func changedWords(before [][]uint64, e *Engine) (words, bitsFlipped int) {
	for s := range before {
		for i, word := range before[s] {
			if d := e.blk[s][i] ^ word; d != 0 {
				words, bitsFlipped = words+1, bitsFlipped+bits.OnesCount64(d)
			}
		}
	}
	return words, bitsFlipped
}

// TestIncrementalWordsStored counts the words updates store on the churn
// workload's engine shape (N = 2048 prefix-only, k = 4): single UpdateEntry
// calls, an 8-delta batch and a 32-delta batch. Each touched 64-entry group
// stores at most stages·2^k words, whatever Ne; a bit-at-a-time column
// write probes stages·2^k bits per entry.
func TestIncrementalWordsStored(t *testing.T) {
	for _, deltas := range []int{8, 32} {
		e, _, rules, entries := deltaFixture(t, 2048, deltas, 23)
		perGroup := e.Stages() << uint(e.Stride())
		groups := map[int]bool{}
		for _, j := range rules {
			groups[j>>6] = true
		}
		child := applyDeltas(t, e, rules, entries)
		words, flipped := changedWords(e.blk, child)
		detached := 0
		for _, sh := range child.shared {
			if !sh {
				detached++
			}
		}
		if words > len(groups)*perGroup {
			t.Fatalf("%d deltas in %d groups stored %d words, bound %d", deltas, len(groups), words, len(groups)*perGroup)
		}
		t.Logf("ApplyDeltas, %d deltas: %d groups, %d words stored (bound %d), %d bits flipped, %d of %d stages detached; column probes %d",
			deltas, len(groups), words, len(groups)*perGroup, flipped, detached, e.Stages(), deltas*perGroup)
		if deltas != 8 {
			continue
		}
		total, most, totalFlipped := 0, 0, 0
		for i, j := range rules {
			before := make([][]uint64, len(e.blk))
			for s := range before {
				before[s] = append([]uint64(nil), e.blk[s]...)
			}
			if err := e.UpdateEntry(j, entries[i]); err != nil {
				t.Fatal(err)
			}
			n, flipped := changedWords(before, e)
			if n > perGroup {
				t.Fatalf("UpdateEntry(%d) stored %d words, bound %d", j, n, perGroup)
			}
			total, most, totalFlipped = total+n, max(most, n), totalFlipped+flipped
		}
		t.Logf("UpdateEntry: %.1f words stored on average, %d at most (bound %d), %.1f bits flipped; column probes %d",
			float64(total)/float64(len(rules)), most, perGroup, float64(totalFlipped)/float64(len(rules)), perGroup)
	}
}
