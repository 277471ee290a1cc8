// Package stridebv implements the FSBV and StrideBV bit-vector packet
// classification algorithms (the paper's Section III-A and IV-A).
//
// StrideBV decomposes the W-bit packed 5-tuple into ceil(W/k) sub-fields of
// k bits ("strides"). Each pipeline stage s stores 2^k bit vectors of Ne
// bits: the vector at address c has bit j set iff ternary entry j is
// compatible with stride value c on bits [sk, sk+k). A header's stride
// values address the stage memories and the fetched vectors are ANDed;
// the surviving bits are the entries matching in *all* positions — exactly
// TCAM semantics — and the first set bit is the highest-priority match.
//
// FSBV is the k=1 special case (one bit per sub-field, two vectors per
// stage).
//
// The memory requirement is ceil(W/k)·2^k·Ne bits, uniform across stages —
// the property that lets the architecture run at a clock rate no single
// stage limits (paper Section III-A3).
package stridebv

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"pktclass/internal/bitvec"
	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
)

// Engine is a functional StrideBV classifier over a ternary-expanded
// ruleset.
type Engine struct {
	ex     *ruleset.Expanded
	k      int
	stages int
	ne     int
	// words is the length of one stage row — the Ne-bit vector one stride
	// value addresses — in 64-bit words, sumWords the length of its summary.
	words, sumWords int
	// blk[s] is stage s's whole memory, 2^k rows of words words each:
	// blk[s][c·words+w] is word w of the vector for stride value c. Rows are
	// contiguous, so the words a lookup reads from one stage stream
	// sequentially. A delta-derived engine (ApplyDeltas) shares a stage's
	// block with its parent until setBit detaches it.
	//
	//pclass:cow
	blk [][]uint64
	// sum[s] is the word-level summary of blk[s], laid out the same way:
	// bit w of row c (sum[s][c·sumWords+w/64], bit w%64) is set iff word w of
	// the stage row is nonzero. ANDing the summaries along a header's path
	// yields the candidate words the full AND can possibly survive in, so
	// classification skips all-zero words and its cost tracks the population
	// near the match, not Ne. Aliased with a delta parent exactly like blk.
	//
	//pclass:cow
	sum [][]uint64
	// shared[s] means blk[s] and sum[s] still alias the engine this one was
	// delta-derived from (ApplyDeltas); nil for engines built from scratch.
	// setBit clones the stage's blocks before the first in-place write, so a
	// delta child can never mutate state a concurrent reader of the parent
	// still holds.
	shared []bool
	// ones[s] counts the set bits of blk[s], kept current by setBit; order
	// lists the stages sparsest first — the order the lookup ANDs them in.
	// AND commutes, so any order gives the same answer; probing the most
	// selective stages first is what lets a candidate word die after a load
	// or two wherever in the tuple the ruleset's selective bits sit (the
	// leading SIP bits of a firewall set, the DIP and port bits of a
	// prefix-only one). A delta child copies ones; order is replaced whole
	// by reorder and never written in place, so it can stay shared.
	ones, order []int
	// ownsEntries is set once the engine has copied ex away from the
	// caller's Expanded (copy-on-first-update; see UpdateEntry).
	ownsEntries bool
	// scratch recycles per-goroutine lookup state so the classification fast
	// path allocates nothing in steady state. It is held by pointer so a
	// delta-derived engine (ApplyDeltas) shares the pool with its parent:
	// the dimensions are identical and the warm workspaces survive swaps.
	scratch *sync.Pool
}

// scratchState is one goroutine's reusable lookup workspace, recycled
// through the engine's pool: a packet's stage addresses, the candidate
// words left to walk (the AND of the addressed rows' summaries) and, for
// matchInto only, the full result vector.
//
//pclass:pooled
type scratchState struct {
	addrs []int
	sum   []uint64
	acc   bitvec.Vector
}

// MinStride and MaxStride bound supported stride lengths. The paper uses 3
// and 4; larger strides square the per-stage memory (2^k growth), smaller
// ones add stages.
const (
	MinStride = 1
	MaxStride = 8
)

// leadStages is how many stages (the sparsest ones, see Engine.order) the
// word walker ANDs before it first tests the partial result. Nearly every
// candidate word dies within them, which turns the "word died" branch from
// a coin flip per stage into one predictable branch per candidate. Every
// supported stride has more stages than this (ceil(W/MaxStride) = 13).
const leadStages = 4

// New builds a StrideBV engine with stride k over the expanded ruleset.
func New(ex *ruleset.Expanded, k int) (*Engine, error) {
	if k < MinStride || k > MaxStride {
		return nil, fmt.Errorf("stridebv: stride %d outside [%d,%d]", k, MinStride, MaxStride)
	}
	if ex.Len() == 0 {
		return nil, fmt.Errorf("stridebv: empty ruleset")
	}
	e := newEngine(ex, k, ex.Len())
	e.blk, e.sum, e.ones = e.makeBlocks(e.words), e.makeBlocks(e.sumWords), make([]int, e.stages)
	for j, entry := range ex.Entries {
		e.writeEntry(j, entry)
	}
	e.reorder()
	return e, nil
}

// newEngine returns an engine of the given geometry, its stage memory still
// to be attached.
func newEngine(ex *ruleset.Expanded, k, ne int) *Engine {
	words := (ne + 63) / 64
	return &Engine{
		ex:       ex,
		k:        k,
		stages:   packet.NumStrides(k),
		ne:       ne,
		words:    words,
		sumWords: (words + 63) / 64,
		scratch:  new(sync.Pool),
	}
}

// makeBlocks allocates one zeroed block per stage: 2^k rows of rowWords
// words.
func (e *Engine) makeBlocks(rowWords int) [][]uint64 {
	b := make([][]uint64, e.stages)
	for s := range b {
		b[s] = make([]uint64, rowWords<<uint(e.k))
	}
	return b
}

// getScratch returns a recycled (or, on first use per goroutine, fresh)
// lookup workspace sized for this engine.
//
//pclass:pooled
func (e *Engine) getScratch() *scratchState {
	if sc, ok := e.scratch.Get().(*scratchState); ok {
		return sc
	}
	return &scratchState{
		addrs: make([]int, e.stages),
		sum:   make([]uint64, e.sumWords),
		acc:   bitvec.New(e.ne),
	}
}

// putScratch recycles a lookup workspace; the caller must not touch sc
// again.
//
//pclass:releases
func (e *Engine) putScratch(sc *scratchState) { e.scratch.Put(sc) }

// NewFSBV builds the k=1 Field-Split Bit Vector engine.
func NewFSBV(ex *ruleset.Expanded) (*Engine, error) { return New(ex, 1) }

// RefreshSummaries recomputes the state derived from the stage memories:
// the word-level summary index, the stage populations and the walk order.
// None of it exists in hardware, so code that mutates stage memory directly
// through StageVector (fault injection, scrub tooling) must refresh before
// classifying; the supported mutation paths (UpdateEntry, InvalidateEntry,
// ApplyDeltas) maintain it incrementally. The summaries are rebuilt into
// fresh blocks, never in place, so a delta parent's are left alone.
func (e *Engine) RefreshSummaries() {
	sum, ones := e.makeBlocks(e.sumWords), make([]int, e.stages)
	for s, blk := range e.blk {
		for i, word := range blk {
			if word != 0 {
				c, w := i/e.words, i%e.words
				sum[s][c*e.sumWords+w>>6] |= 1 << uint(w&63)
				ones[s] += bits.OnesCount64(word)
			}
		}
	}
	e.sum, e.ones = sum, ones
	e.reorder()
}

// reorder re-sorts the walk order by the current stage populations. New,
// RefreshSummaries (so ReadImage) and ApplyDeltas end with it; the in-place
// UpdateEntry does not — a stale order costs a few extra loads per lookup,
// never a wrong answer, and one entry cannot move a stage's population far.
func (e *Engine) reorder() {
	order := make([]int, e.stages)
	for s := range order {
		order[s] = s
	}
	sort.SliceStable(order, func(a, b int) bool { return e.ones[order[a]] < e.ones[order[b]] })
	e.order = order
}

// setBit is the single mutation point for stage memory: it un-aliases a
// stage's blocks while they are still shared with a delta parent before
// writing, and keeps the word-level summary and the stage population
// consistent with the written word. This is the function the PR-7
// aliased-write fix funnelled every write through — cowwrite enforces that
// nothing grows a second write path.
//
//pclass:cow-mutator
func (e *Engine) setBit(s, c, j int, want bool) {
	w := j >> 6
	i, bit := c*e.words+w, uint64(1)<<uint(j&63)
	if (e.blk[s][i]&bit != 0) == want {
		return
	}
	if e.shared != nil && e.shared[s] {
		e.blk[s] = append([]uint64(nil), e.blk[s]...)
		e.sum[s] = append([]uint64(nil), e.sum[s]...)
		e.shared[s] = false
	}
	e.blk[s][i] ^= bit
	if want {
		e.ones[s]++
	} else {
		e.ones[s]--
	}
	si, sbit := c*e.sumWords+w>>6, uint64(1)<<uint(w&63)
	if e.blk[s][i] != 0 {
		e.sum[s][si] |= sbit
	} else {
		e.sum[s][si] &^= sbit
	}
}

// writeEntry rewrites entry j's whole bit column: in every stage, bit j of
// row c is set iff stride value c is compatible with the entry there. The
// entry's care and value strides are derived once per stage, so each row
// costs one compare: c matches iff it agrees with the value on every cared
// bit. Bits past W (final-stage padding) are cared about and zero — they
// only match the zero padding the header side generates — and an
// invalidated entry is compatible with nothing. Rewriting from scratch is
// what makes this double as the fault-scrub repair primitive; bits that are
// already right are left alone, so a stage the write does not change is
// never detached from a delta parent.
func (e *Engine) writeEntry(j int, entry ruleset.Ternary) {
	var care, val [packet.W]int
	entry.Mask.StridesInto(e.k, care[:])
	entry.Value.StridesInto(e.k, val[:])
	care[e.stages-1] |= 1<<uint(e.stages*e.k-packet.W) - 1
	for s := 0; s < e.stages; s++ {
		for c := 0; c < 1<<uint(e.k); c++ {
			e.setBit(s, c, j, !entry.Invalid && (c^val[s])&care[s] == 0)
		}
	}
}

// Name identifies the engine, including its stride.
func (e *Engine) Name() string { return fmt.Sprintf("stridebv-k%d", e.k) }

// Stride returns k.
func (e *Engine) Stride() int { return e.k }

// Stages returns the pipeline depth ceil(W/k).
func (e *Engine) Stages() int { return e.stages }

// NumRules returns the original rule count N.
func (e *Engine) NumRules() int { return e.ex.NumRules }

// NumEntries returns the bit-vector width Ne.
func (e *Engine) NumEntries() int { return e.ne }

// MemoryBits returns the total stage-memory requirement in bits:
// stages × 2^k × Ne.
func (e *Engine) MemoryBits() int { return e.stages * (1 << uint(e.k)) * e.ne }

// MatchVector computes the final multi-match bit vector for a packed
// header: the AND of every stage's addressed vector. The returned vector is
// freshly allocated and owned by the caller; the classification fast path
// (Classify, ClassifyBatch) uses the recycled-scratch equivalent instead.
func (e *Engine) MatchVector(key packet.Key) bitvec.Vector {
	sc := e.getScratch()
	key.StridesInto(e.k, sc.addrs)
	v := e.matchInto(sc).Clone()
	e.putScratch(sc)
	return v
}

// candidates ANDs the summaries of the rows sc.addrs selects into sc.sum:
// the candidate words, the only ones that can be nonzero in the final
// result (one summary word covers 4096 entries).
//
//pclass:hotpath
func (e *Engine) candidates(sc *scratchState) {
	sums, sw := e.sum, e.sumWords
	for i := range sc.sum {
		cand := ^uint64(0)
		for s, c := range sc.addrs {
			cand &= sums[s][c*sw+i]
		}
		sc.sum[i] = cand
	}
}

// nextMatch is the one summary-guided word walker every lookup shares. It
// takes the next candidates off sc.sum, in ascending order, until one
// survives the AND of every addressed stage row, and returns that word's
// index and value — or (-1, 0) once the candidates are spent. Only
// candidate words are ever read, in e.order: the leadStages sparsest rows
// unconditionally, the rest with an early break the moment the word dies.
//
//pclass:hotpath
func (e *Engine) nextMatch(sc *scratchState) (int, uint64) {
	blk, addrs, n, order := e.blk, sc.addrs, e.words, e.order
	// The leadStages rows, as equal-length slices: one bounds check on b0
	// covers all four loads.
	b0 := blk[order[0]][addrs[order[0]]*n:][:n]
	b1 := blk[order[1]][addrs[order[1]]*n:][:len(b0)]
	b2 := blk[order[2]][addrs[order[2]]*n:][:len(b0)]
	b3 := blk[order[3]][addrs[order[3]]*n:][:len(b0)]
	order = order[leadStages:]
	for i, cand := range sc.sum {
		for ; cand != 0; cand &= cand - 1 {
			w := i<<6 + bits.TrailingZeros64(cand)
			word := b0[w] & b1[w] & b2[w] & b3[w]
			if word == 0 {
				continue
			}
			for p := 0; word != 0 && p < len(order); p++ {
				s := order[p]
				word &= blk[s][addrs[s]*n+w]
			}
			if word != 0 {
				sc.sum[i] = cand & (cand - 1)
				return w, word
			}
		}
		sc.sum[i] = 0
	}
	return -1, 0
}

// matchInto computes the full match vector for the strides in sc.addrs into
// sc.acc and returns it: surviving words come from the walker, everything
// else is zero-filled without touching stage memory.
//
//pclass:hotpath
func (e *Engine) matchInto(sc *scratchState) bitvec.Vector {
	e.candidates(sc)
	accW := sc.acc.Words()
	for w := range accW {
		accW[w] = 0
	}
	for w, word := e.nextMatch(sc); w >= 0; w, word = e.nextMatch(sc) {
		accW[w] = word
	}
	return sc.acc
}

// firstMatch returns the first surviving entry for a header, or -1 — the
// priority-encoder output. Words are walked in ascending entry order, so
// the first survivor word holds the highest-priority match and nothing
// after it can win.
//
//pclass:hotpath
func (e *Engine) firstMatch(h packet.Header, sc *scratchState) int {
	h.StridesInto(e.k, sc.addrs)
	e.candidates(sc)
	w, word := e.nextMatch(sc)
	if w < 0 {
		return -1
	}
	return w<<6 + bits.TrailingZeros64(word)
}

// Classify returns the highest-priority matching rule index, or -1.
//
//pclass:hotpath
func (e *Engine) Classify(h packet.Header) int {
	sc := e.getScratch()
	entry := e.firstMatch(h, sc)
	e.putScratch(sc)
	if entry < 0 {
		return -1
	}
	return e.ex.Parent[entry]
}

// ClassifyBatch classifies hdrs into out (the core.BatchClassifier fast
// path): one scratch workspace serves the whole batch, so the steady-state
// per-packet cost is the summary AND, the surviving stage-memory words and
// a first-set scan, with zero allocations. Safe for concurrent use.
//
//pclass:hotpath
func (e *Engine) ClassifyBatch(hdrs []packet.Header, out []int) {
	sc := e.getScratch()
	for i, h := range hdrs {
		entry := e.firstMatch(h, sc)
		if entry < 0 {
			out[i] = -1
		} else {
			out[i] = e.ex.Parent[entry]
		}
	}
	e.putScratch(sc)
}

// MultiMatch returns every matching rule index in priority order.
func (e *Engine) MultiMatch(h packet.Header) []int {
	sc := e.getScratch()
	h.StridesInto(e.k, sc.addrs)
	rules := e.ex.ParentRules(e.matchInto(sc).SetBits())
	e.putScratch(sc)
	return rules
}

// UpdateEntry reprograms ternary entry j in place: one bit-slice write per
// stage memory, the incremental-update property of the bit-vector approach
// (no global rebuild required). The write restores entry j's column from
// scratch — the fault-scrub repair primitive — and allocates nothing in
// steady state on an engine that owns its storage. On a delta-derived
// engine (ApplyDeltas) the touched stages are un-aliased first, so the
// parent engine that concurrent readers may still hold is never mutated.
// The engine copies its entry table on the first update, so the caller's
// Expanded — possibly shared with a reference engine for differential
// verification — is never mutated; Expanded() reflects the engine's own
// post-update view.
//
// UpdateEntry mutates live stage memory and must not run concurrently with
// classification; for the publish-after-write variant that is safe under
// concurrent readers, see ApplyDeltas.
func (e *Engine) UpdateEntry(j int, entry ruleset.Ternary) error {
	if j < 0 || j >= e.ne {
		return fmt.Errorf("stridebv: entry %d out of range [0,%d)", j, e.ne)
	}
	e.ensureOwnedEntries()
	//pclass:allow-mutate the entry table is owned post copy-on-write
	e.ex.Entries[j] = entry
	e.writeEntry(j, entry)
	return nil
}

// ensureOwnedEntries detaches the engine's entry table from the Expanded it
// was built over (copy-on-first-update). Parent is never mutated and stays
// shared.
func (e *Engine) ensureOwnedEntries() {
	if e.ownsEntries {
		return
	}
	e.ex = &ruleset.Expanded{
		Entries:  append([]ruleset.Ternary(nil), e.ex.Entries...),
		Parent:   e.ex.Parent,
		NumRules: e.ex.NumRules,
	}
	e.ownsEntries = true
}

// InvalidateEntry disables entry j: its bit is cleared in every stage
// vector, so it can never survive the pipeline AND. The invalidation is
// recorded in the engine's owned entry table (as ruleset.InvalidTernary),
// so rebuilding from Expanded() or serializing does not resurrect the
// entry, and — like UpdateEntry — the write is copy-on-write safe on a
// delta-derived engine.
func (e *Engine) InvalidateEntry(j int) error {
	return e.UpdateEntry(j, ruleset.InvalidTernary())
}

// StageVector exposes the stored vector at (stage, value) — a view of the
// stage block's row, not a copy — and is how everything outside the lookup
// kernel (cycle-accurate pipeline, traced classify, tests, the
// hardware-model netlist builder) reads stage memory. Mutating it directly
// bypasses both the copy-on-write detach and the summary maintenance: only
// do so on an engine that owns its storage, and call RefreshSummaries
// afterwards (see the fault-injection tests).
func (e *Engine) StageVector(s, c int) bitvec.Vector {
	return bitvec.View(e.ne, e.blk[s][c*e.words:(c+1)*e.words])
}

// Expanded returns the engine's view of the expanded ruleset. Until the
// first UpdateEntry this is the Expanded the engine was built over; after
// it, the engine's private copy with updates applied.
func (e *Engine) Expanded() *ruleset.Expanded { return e.ex }

// String summarises the engine configuration.
func (e *Engine) String() string {
	return fmt.Sprintf("%s{stages=%d entries=%d mem=%dKbit}",
		e.Name(), e.stages, e.ne, e.MemoryBits()/1024)
}
