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

// checkGroupsOracle fails unless, in every group of groups, each stage
// row holds entry for entry what the bit-probe oracle says of pattern(j),
// and nothing past Ne. A fresh build runs the same writer as rewrite, so
// only this check sees how the rows are formed.
func checkGroupsOracle(t *testing.T, name string, m *Memory, groups map[int]bool, pattern func(j int) (value, mask []byte, valid bool)) {
	t.Helper()
	for wi := range groups {
		for s, blk := range m.blk {
			for c := 0; c < 1<<uint(m.k); c++ {
				word := blk[c*m.words+wi]
				for j := wi << 6; j < wi<<6+64; j++ {
					want := false
					if j < m.ne {
						value, mask, valid := pattern(j)
						want = compatibleBits(value, mask, valid, m.w, m.k, s, c)
					}
					if got := word>>uint(j&63)&1 == 1; got != want {
						t.Fatalf("%s: stage %d row %d entry %d: stored %v, oracle %v", name, s, c, j, got, want)
					}
				}
			}
		}
	}
}

// TestIncrementalRewritesEqualFreshBuild: any sequence of ApplyDeltas
// batches — single replacements, single invalidations and batches of up to
// three — leaves stage memory exactly as a fresh New over the resulting
// entry list would build it, and every engine a delta was derived from
// exactly as it was. The sequences start with an in-place rewrite of entry
// Ne−1 (in a partial last word) on the fresh build, which owns its storage,
// and a batch that repeats an index (the last delta wins), then chain delta
// children and grandchildren — one-byte rewrites leave stages half shared.
// Every group the sequence wrote then holds what the bit-probe oracle says
// of its entries.
func TestIncrementalRewritesEqualFreshBuild(t *testing.T) {
	for k := MinStride; k <= MaxStride; k++ {
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
	touched := map[int]bool{}
	draws := func(rules []int) []ruleset.Ternary {
		entries := make([]ruleset.Ternary, len(rules))
		for i, j := range rules {
			entries[i] = draw(j)
		}
		return entries
	}
	apply := func(rules []int, entries []ruleset.Ternary) {
		child := applyDeltas(t, cur, rules, entries)
		if halfShared(cur) {
			halfParents++
		}
		ancestors = append(ancestors, frozen{cur, append([]ruleset.Ternary(nil), want...)})
		for i, j := range rules {
			want[j] = entries[i]
			touched[j>>6] = true
		}
		cur = child
	}
	for step := 0; step < 40; step++ {
		name := fmt.Sprintf("k=%d seed=%d step %d", k, seed, step)
		switch {
		case step == 0:
			entry := draw(ne - 1)
			rewriteEntry(cur, ne-1, &entry)
			want[ne-1] = entry
			touched[(ne-1)>>6] = true
		case step == 1:
			rules := []int{ne - 1, 3, ne - 1, 3}
			apply(rules, draws(rules))
		default:
			switch rng.Intn(3) {
			case 0:
				j := index()
				apply([]int{j}, []ruleset.Ternary{draw(j)})
			case 1:
				apply([]int{index()}, []ruleset.Ternary{ruleset.InvalidTernary()})
			case 2:
				rules := make([]int, 1+rng.Intn(3))
				for i := range rules {
					rules[i] = index()
				}
				apply(rules, draws(rules))
			}
		}
		checkFresh(t, name, cur, want)
	}
	for i, a := range ancestors {
		checkFresh(t, fmt.Sprintf("k=%d seed=%d ancestor %d", k, seed, i), a.e, a.want)
	}
	checkGroupsOracle(t, fmt.Sprintf("k=%d seed=%d", k, seed), &cur.Memory, touched, func(j int) ([]byte, []byte, bool) {
		return pattern(&want[j])
	})
	if halfParents == 0 {
		t.Fatalf("k=%d seed=%d: no delta on a half-shared engine", k, seed)
	}
}

// memPattern is one entry of a generic-width memory.
type memPattern struct {
	value, mask []byte
	valid       bool
}

// randPattern returns a valid w-bit pattern with junk under its don't-care
// bits and no care bit past W.
func randPattern(rng *rand.Rand, w int) memPattern {
	n := (w + 7) / 8
	p := memPattern{value: make([]byte, n), mask: make([]byte, n), valid: true}
	rng.Read(p.value)
	rng.Read(p.mask)
	for i := range p.mask {
		p.mask[i] &= byte(rng.Intn(256)) | byte(rng.Intn(256))
	}
	p.mask[n-1] &^= byte(1)<<uint(n*8-w) - 1
	return p
}

// checkFreshMemory fails unless m holds exactly the stage memory a fresh
// BuildMemory over want has: stage blocks, lead summaries of m's own walk
// order derived from its stored words, and, once m is reordered,
// populations, walk order and lead summaries.
func checkFreshMemory(t *testing.T, name string, m *Memory, want []memPattern) {
	t.Helper()
	fresh, err := BuildMemory(m.w, m.k, m.ne, func(j int) ([]byte, []byte, bool) {
		return want[j].value, want[j].mask, want[j].valid
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.blk, fresh.blk) {
		t.Fatalf("%s: stage memory differs from a fresh build's", name)
	}
	if !reflect.DeepEqual(m.lead, m.DeriveLead()) {
		t.Fatalf("%s: lead summaries differ from those of the stored words under order %v", name, m.order)
	}
	m.Reorder()
	if !reflect.DeepEqual(m.ones, fresh.ones) || !reflect.DeepEqual(m.order, fresh.order) || !reflect.DeepEqual(m.lead, fresh.lead) {
		t.Fatalf("%s: populations %v / %v, order %v / %v, or lead summaries differ", name, m.ones, fresh.ones, m.order, fresh.order)
	}
}

// deltaChild returns a copy of m whose stage blocks all alias m's, the
// state ApplyDeltas starts a child in.
func deltaChild(m *Memory) Memory {
	n := *m
	n.blk = append([][]uint64(nil), m.blk...)
	n.lead = append([]uint64(nil), m.lead...)
	n.ones = append([]int(nil), m.ones...)
	n.shared = make([]bool, n.stages)
	for s := range n.shared {
		n.shared[s] = true
	}
	return n
}

// TestMemoryRewritesEqualFreshBuild is the writer's parity check at the
// widths of TestBuildMemoryMatchesBitProbeOracle and every stride: after
// single-entry, multi-entry and invalidating group rewrites, on a memory
// and on chains of delta children, stage memory is exactly a fresh
// BuildMemory's, and every ancestor is exactly as it was. Every group the
// rewrites wrote then holds what the bit-probe oracle says of its entries.
func TestMemoryRewritesEqualFreshBuild(t *testing.T) {
	const ne = 200 // four words, eight entries in the last
	rng := rand.New(rand.NewSource(3))
	for _, w := range []int{8, 13, 72, 256, 300} {
		for k := MinStride; k <= MaxStride; k++ {
			want := make([]memPattern, ne)
			for j := range want {
				want[j] = randPattern(rng, w)
			}
			m, err := BuildMemory(w, k, ne, func(j int) ([]byte, []byte, bool) {
				return want[j].value, want[j].mask, want[j].valid
			})
			if err != nil {
				t.Fatal(err)
			}
			type frozen struct {
				m    *Memory
				want []memPattern
			}
			var ancestors []frozen
			touched := map[int]bool{}
			for step := 0; step < 24; step++ {
				name := fmt.Sprintf("W=%d k=%d step %d", w, k, step)
				if step%5 == 4 { // carry on in a delta child
					parent := m
					ancestors = append(ancestors, frozen{&parent, append([]memPattern(nil), want...)})
					m = deltaChild(&parent)
				}
				wi := rng.Intn((ne + 63) / 64)
				touched[wi] = true
				var dirty uint64
				invalid := 1 // in 4: the share of the dirty entries made invalid
				switch n := min(64, ne-wi<<6); rng.Intn(3) {
				case 0: // one entry
					dirty = 1 << uint(rng.Intn(n))
				case 1: // several
					for i := 1 + rng.Intn(8); i > 0; i-- {
						dirty |= 1 << uint(rng.Intn(n))
					}
				case 2: // the whole group, most of it invalidated
					dirty, invalid = ^uint64(0)>>uint(64-n), 3
				}
				next := map[int]memPattern{}
				for rest := dirty; rest != 0; rest &= rest - 1 {
					j := wi<<6 + bits.TrailingZeros64(rest)
					p := randPattern(rng, w)
					if rng.Intn(3) == 0 {
						p = want[j] // rewritten as it is
					}
					if rng.Intn(4) < invalid {
						p.valid = false
					}
					next[j] = p
				}
				m.rewrite(wi, dirty, func(j int) ([]byte, []byte, bool) {
					p := next[j]
					return p.value, p.mask, p.valid
				})
				for j, p := range next {
					want[j] = p
				}
				checkFreshMemory(t, name, &m, want)
			}
			for i, a := range ancestors {
				checkFreshMemory(t, fmt.Sprintf("W=%d k=%d ancestor %d", w, k, i), a.m, a.want)
			}
			checkGroupsOracle(t, fmt.Sprintf("W=%d k=%d", w, k), &m, touched, func(j int) ([]byte, []byte, bool) {
				return want[j].value, want[j].mask, want[j].valid
			})
		}
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
// workload's engine shape (N = 2048 prefix-only, k = 4): single-entry
// rewrites on an engine that owns its storage, an 8-delta batch and a
// 32-delta batch. Each touched 64-entry group stores at most stages·2^k
// words, whatever Ne; a bit-at-a-time column write probes stages·2^k bits
// per entry.
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
			rewriteEntry(e, j, &entries[i])
			n, flipped := changedWords(before, e)
			if n > perGroup {
				t.Fatalf("rewrite of entry %d stored %d words, bound %d", j, n, perGroup)
			}
			total, most, totalFlipped = total+n, max(most, n), totalFlipped+flipped
		}
		t.Logf("single-entry rewrite: %.1f words stored on average, %d at most (bound %d), %.1f bits flipped; column probes %d",
			float64(total)/float64(len(rules)), most, perGroup, float64(totalFlipped)/float64(len(rules)), perGroup)
	}
}
