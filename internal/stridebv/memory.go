package stridebv

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"pktclass/internal/bitvec"
)

// Memory is StrideBV stage memory over a W-bit key: ceil(W/k) stages of 2^k
// rows of Ne bits, whatever W, k and the key's fields mean — the uniformity
// the paper's Section III-A3 rests on. It holds the one row-AND walker, the
// one summary index and the one writer, rewrite, which reprograms the
// columns of a 64-entry group one stored word at a time and is the one
// copy-on-write mutation point of every bit-vector engine in the tree:
// BuildMemory is rewrite over fresh blocks, every in-place update is
// rewrite over the touched groups. The front ends embed it and differ only
// in how a lookup's stage addresses are produced and in what a surviving
// entry means: Engine (the packed 5-tuple, entries resolved through the
// expansion's parent map), RangeEngine (the 72 prefix bits, port bounds
// tested on the survivors) and genbv.Engine (any width, byte-string keys,
// which is why the type is exported).
type Memory struct {
	w, k, stages, ne int
	// words is the length of one stage row — the Ne-bit vector one stride
	// value addresses — in 64-bit words, sumWords the length of its summary.
	words, sumWords int
	// blk[s] is stage s's whole memory, 2^k rows of words words each:
	// blk[s][c·words+w] is word w of the vector for stride value c. Rows are
	// contiguous, so the words a lookup reads from one stage stream
	// sequentially. A delta-derived engine (ApplyDeltas) shares a stage's
	// block with its parent until rewrite stores a word that differs in it.
	//
	//pclass:cow
	blk [][]uint64
	// sum[s] is the word-level summary of blk[s], laid out the same way:
	// bit w of row c (sum[s][c·sumWords+w/64], bit w%64) is set iff word w of
	// the stage row is nonzero. ANDing the summaries of the sparsest
	// addressed rows yields the candidate words the full AND can possibly
	// survive in, so classification skips all-zero words and its cost tracks
	// the population near the match, not Ne. Aliased with a delta parent
	// exactly like blk.
	//
	//pclass:cow
	sum [][]uint64
	// shared[s] means blk[s] and sum[s] still alias the engine this one was
	// delta-derived from (ApplyDeltas); nil for memories built from scratch.
	// rewrite clones the stage's blocks before it stores the first word that
	// differs, so a delta child can never mutate state a concurrent reader of
	// the parent still holds.
	shared []bool
	// ones[s] counts the set bits of blk[s], kept current by rewrite; order
	// lists the stages sparsest first — the order the lookup ANDs them in.
	// AND commutes, so any order gives the same answer; probing the most
	// selective stages first is what lets a candidate word die after a load
	// or two wherever in the key the ruleset's selective bits sit (the
	// leading SIP bits of a firewall set, the DIP and port bits of a
	// prefix-only one). A delta child copies ones; order is replaced whole
	// by Reorder and never written in place, so it can stay shared.
	ones, order []int
	// scratch recycles per-goroutine lookup state so the classification fast
	// path allocates nothing in steady state. It is held by pointer so a
	// delta-derived engine (ApplyDeltas) shares the pool with its parent:
	// the dimensions are identical and the warm workspaces survive swaps.
	scratch *sync.Pool
}

// scratchState is one goroutine's reusable workspace, recycled through the
// memory's pool: a key's stage addresses (an entry write's value strides),
// an entry write's care strides, the candidate words left to walk (see
// candidates), for matchInto only the full result
// vector, and for rewrite only the group's stride table, made on a
// workspace's first write — strides[s·64+b] is the stage-s stride of the
// group's entry b, value in the low byte and care in the high one (k <= 8).
//
//pclass:pooled
type scratchState struct {
	addrs, care []int
	sum         []uint64
	acc         bitvec.Vector
	strides     []uint16
}

// MinStride and MaxStride bound supported stride lengths. The paper uses 3
// and 4; larger strides square the per-stage memory (2^k growth), smaller
// ones add stages.
const (
	MinStride = 1
	MaxStride = 8
)

// leadStages is how many stages (the sparsest ones, see Memory.order) the
// candidate summary ANDs, and the word walker ANDs before it first tests
// the partial result. Nearly every candidate word dies within them, which
// turns the "word died" branch from a coin flip per stage into one
// predictable branch per candidate. A key with fewer stages (W = 8, k = 8
// has one) repeats its sparsest stage to fill the lead; see Reorder.
const leadStages = 4

// checkGeometry rejects dimensions no memory can have.
func checkGeometry(w, k, ne int) error {
	if k < MinStride || k > MaxStride {
		return fmt.Errorf("stridebv: stride %d outside [%d,%d]", k, MinStride, MaxStride)
	}
	if w < 1 {
		return fmt.Errorf("stridebv: key width %d", w)
	}
	if ne < 1 {
		return fmt.Errorf("stridebv: no entries")
	}
	return nil
}

// BuildMemory returns stage memory for ne entries of w bits at stride k with
// every column programmed: entry(j) returns entry j's W-bit ternary pattern
// (mask bit 1 = care; an entry that is not valid matches nothing), and the
// slices are read before the next call, so a caller may reuse them. The
// memory is rewrite of every 64-entry group over freshly made blocks — at
// most stages·2^k·ceil(ne/64) word stores, only the nonzero words stored.
func BuildMemory(w, k, ne int, entry func(j int) (value, mask []byte, valid bool)) (Memory, error) {
	if err := checkGeometry(w, k, ne); err != nil {
		return Memory{}, err
	}
	m := newMemory(w, k, ne)
	m.blk, m.sum, m.ones = m.makeBlocks(m.words), m.makeBlocks(m.sumWords), make([]int, m.stages)
	for wi := 0; wi < m.words; wi++ {
		m.rewrite(wi, ^uint64(0)>>uint(64-min(64, ne-wi<<6)), entry)
	}
	m.Reorder()
	return m, nil
}

// newMemory returns memory of the given geometry, its storage still to be
// attached.
func newMemory(w, k, ne int) Memory {
	words := (ne + 63) / 64
	return Memory{
		w:        w,
		k:        k,
		stages:   (w + k - 1) / k,
		ne:       ne,
		words:    words,
		sumWords: (words + 63) / 64,
		scratch:  new(sync.Pool),
	}
}

// makeBlocks allocates one zeroed block per stage: 2^k rows of rowWords
// words.
func (m *Memory) makeBlocks(rowWords int) [][]uint64 {
	b := make([][]uint64, m.stages)
	for s := range b {
		b[s] = make([]uint64, rowWords<<uint(m.k))
	}
	return b
}

// getScratch returns a recycled (or, on first use per goroutine, fresh)
// workspace sized for this memory.
//
//pclass:pooled
func (m *Memory) getScratch() *scratchState {
	if sc, ok := m.scratch.Get().(*scratchState); ok {
		return sc
	}
	return &scratchState{
		addrs: make([]int, m.stages),
		care:  make([]int, m.stages),
		sum:   make([]uint64, m.sumWords),
		acc:   bitvec.New(m.ne),
	}
}

// putScratch recycles a workspace; the caller must not touch sc again.
//
//pclass:releases
func (m *Memory) putScratch(sc *scratchState) { m.scratch.Put(sc) }

// Width returns the key width W in bits.
func (m *Memory) Width() int { return m.w }

// Stride returns k.
func (m *Memory) Stride() int { return m.k }

// Stages returns the pipeline depth ceil(W/k).
func (m *Memory) Stages() int { return m.stages }

// NumEntries returns the bit-vector width Ne.
func (m *Memory) NumEntries() int { return m.ne }

// Words returns the length of one stage row in 64-bit words, ceil(Ne/64).
func (m *Memory) Words() int { return m.words }

// SummaryWords returns the candidate workspace FirstInWords needs, in
// 64-bit words: one bit per stage-row word.
func (m *Memory) SummaryWords() int { return m.sumWords }

// MemoryBits returns the total stage-memory requirement in bits:
// stages × 2^k × Ne.
func (m *Memory) MemoryBits() int { return m.stages * (1 << uint(m.k)) * m.ne }

// RefreshSummaries recomputes the state derived from the stage memories:
// the word-level summary index, the stage populations and the walk order.
// None of it exists in hardware, so code that mutates stage memory directly
// through StageVector (fault injection, scrub tooling) must refresh before
// classifying; the supported mutation paths (rewrite, behind BuildMemory and
// the front ends' UpdateEntry, InvalidateEntry, ApplyDeltas) maintain it
// from the words they store. The summaries are rebuilt into fresh blocks,
// never in place, so a delta parent's are left alone.
func (m *Memory) RefreshSummaries() {
	sum, ones := m.makeBlocks(m.sumWords), make([]int, m.stages)
	for s, blk := range m.blk {
		for i, word := range blk {
			if word != 0 {
				c, w := i/m.words, i%m.words
				sum[s][c*m.sumWords+w>>6] |= 1 << uint(w&63)
				ones[s] += bits.OnesCount64(word)
			}
		}
	}
	m.sum, m.ones = sum, ones
	m.Reorder()
}

// Reorder re-sorts the walk order by the current stage populations. The
// constructors, RefreshSummaries (so ReadImage) and ApplyDeltas end with it;
// an in-place UpdateEntry or InvalidateEntry does not — a stale order costs
// a few extra loads per lookup, never a wrong answer, and one entry cannot
// move a stage's population far. A key with fewer than leadStages stages
// repeats its sparsest one until the walker's unconditional lead is full:
// AND is idempotent, so the duplicate loads change nothing.
func (m *Memory) Reorder() {
	order := make([]int, m.stages, max(m.stages, leadStages))
	for s := range order {
		order[s] = s
	}
	sort.SliceStable(order, func(a, b int) bool { return m.ones[order[a]] < m.ones[order[b]] })
	for len(order) < leadStages {
		order = append(order, order[0])
	}
	m.order = order
}

// rewrite is the one writer of stage memory. It reprograms the columns of
// the dirty entries of 64-entry group wi — entry(j) returns entry j's
// pattern as BuildMemory takes it — and leaves every other bit as stored.
// Per stage, the 2^k row words of the group are formed in registers for the
// dirty entries, each setting its bit in exactly the rows its stride is
// compatible with, and merged as old &^ dirty | formed: bits of entries
// that are not dirty always come from the stored words, never from an entry
// table (a ReadImage-loaded engine has none). Only words that change are
// stored, and the summary bits and stage population follow the stored
// words. A stage block still shared with a delta parent is detached on the
// first word that differs and never otherwise, so a stage the rewrite does
// not change stays shared. cowwrite keeps this the only write path. Not
// safe concurrently with lookups on the same memory.
//
//pclass:cow-mutator
func (m *Memory) rewrite(wi int, dirty uint64, entry func(j int) (value, mask []byte, valid bool)) {
	sc := m.getScratch()
	if sc.strides == nil {
		sc.strides = make([]uint16, m.stages*64)
	}
	strides := sc.strides
	var live uint64 // the dirty entries that are valid; the others match nothing
	for rest := dirty; rest != 0; rest &= rest - 1 {
		b := bits.TrailingZeros64(rest)
		value, mask, valid := entry(wi<<6 + b)
		if !valid {
			continue
		}
		live |= 1 << uint(b)
		m.columnStrides(sc, value, mask)
		for s, val := range sc.addrs {
			strides[s<<6+b] = uint16(val) | uint16(sc.care[s])<<8
		}
	}
	var rows [1 << MaxStride]uint64
	nrows, words, sumWords := 1<<uint(m.k), m.words, m.sumWords
	sbit := uint64(1) << uint(wi&63)
	for s := 0; s < m.stages; s++ {
		wild := formRows(&rows, strides[s<<6:][:64], live, nrows)
		blk, sum := m.blk[s], m.sum[s]
		shared := m.shared != nil && m.shared[s]
		ones := 0
		for c := 0; c < nrows; c++ {
			i := c*words + wi
			old := blk[i]
			word := old&^dirty | rows[c] | wild
			rows[c] = 0
			if word == old {
				continue
			}
			if shared {
				blk, sum = append([]uint64(nil), blk...), append([]uint64(nil), sum...)
				m.blk[s], m.sum[s], m.shared[s] = blk, sum, false
				shared = false
			}
			blk[i] = word
			ones += bits.OnesCount64(word) - bits.OnesCount64(old)
			if si := c*sumWords + wi>>6; word != 0 {
				sum[si] |= sbit
			} else {
				sum[si] &^= sbit
			}
		}
		m.ones[s] += ones
	}
	m.putScratch(sc)
}

// formRows forms one stage's row words for the live entries of a group:
// each sets its bit in exactly the rows its stride group[b] is compatible
// with. A stride that cares about nothing is compatible with every row;
// those entries are returned in wild, to be ORed into every row once. It is
// a function of its own so that its loop keeps its variables in registers:
// written inline in rewrite, they spill and a bulk build runs ~7 % slower.
func formRows(rows *[1 << MaxStride]uint64, group []uint16, live uint64, nrows int) (wild uint64) {
	for rest := live; rest != 0; rest &= rest - 1 {
		b := bits.TrailingZeros64(rest)
		val, care := int(group[b]&0xFF), int(group[b]>>8)
		if care == 0 {
			wild |= 1 << uint(b)
			continue
		}
		// The rows that agree with the value on every cared bit: those bits
		// fixed at the value's, every setting of the rest.
		base, free := val&care, (nrows-1)&^care
		for sub := free; ; sub = (sub - 1) & free {
			rows[base|sub] |= 1 << uint(b)
			if sub == 0 {
				break
			}
		}
	}
	return wild
}

// stridesInto is the one generic stride extractor: dst[s] becomes bits
// [s·k, (s+1)·k) of key — ceil(W/8) bytes, MSB first (bit i is bit 7-i%8 of
// byte i/8, the packet.Key layout) — and every position from W on, the tail
// of the last byte and the final stage's padding, reads as zero whatever
// key holds there.
// Entry writes for every front end and the Range and generic-width lookups
// use it; the 5-tuple lookup keeps packet.Header.StridesInto, the
// divide-free two-word form of the same function.
//
//pclass:hotpath
func (m *Memory) stridesInto(key []byte, dst []int) {
	k, mask := uint(m.k), uint(1)<<uint(m.k)-1
	last, tail := (m.w-1)/8, byte(0xFF)<<uint(7-(m.w-1)%8)
	var acc, have uint
	i := 0
	for s := range dst {
		for ; have < k; have, i = have+8, i+1 {
			acc <<= 8
			if i < len(key) {
				b := key[i]
				if i == last {
					b &= tail
				}
				acc |= uint(b)
			}
		}
		have -= k
		dst[s] = int(acc >> have & mask)
	}
}

// columnStrides derives an entry's per-stage value (sc.addrs) and care
// (sc.care) strides from its W-bit ternary pattern (mask bit 1 = care) —
// once per entry, so that each row costs one compare. Bits past W
// (final-stage padding) are cared about and zero: they only match the zero
// padding the key side generates.
func (m *Memory) columnStrides(sc *scratchState, value, mask []byte) {
	m.stridesInto(value, sc.addrs)
	m.stridesInto(mask, sc.care)
	sc.care[m.stages-1] |= 1<<uint(m.stages*m.k-m.w) - 1
}

// candidates fills cand with the AND of the leadStages sparsest addressed
// rows' summaries: a superset of the words that can be nonzero in the final
// result (one summary word covers 4096 entries). The walker ANDs every
// stage of each candidate word anyway, so the other stages' summaries would
// only thin the set it already thins itself, at one load per stage per
// summary word. Measured from Ne = 2048 to 30348 (one to eight summary
// words), the walk reads at most 5.8 % more words than with every stage's
// summary (EXPERIMENTS.md, "One stride extraction per packet").
//
//pclass:hotpath
func (m *Memory) candidates(addrs []int, cand []uint64) {
	sums, sw, order := m.sum, m.sumWords, m.order
	s0 := sums[order[0]][addrs[order[0]]*sw:][:len(cand)]
	s1 := sums[order[1]][addrs[order[1]]*sw:][:len(s0)]
	s2 := sums[order[2]][addrs[order[2]]*sw:][:len(s0)]
	s3 := sums[order[3]][addrs[order[3]]*sw:][:len(s0)]
	for i := range s0 {
		cand[i] = s0[i] & s1[i] & s2[i] & s3[i]
	}
}

// nextMatch is the one summary-guided word walker every lookup shares. It
// takes the next candidates off cand, in ascending order, until one
// survives the AND of every row addrs selects, and returns that word's
// index and value — or (-1, 0) once the candidates are spent. Only
// candidate words are ever read, in m.order: the leadStages sparsest rows
// unconditionally, the rest with an early break the moment the word dies.
//
//pclass:hotpath
func (m *Memory) nextMatch(addrs []int, cand []uint64) (int, uint64) {
	blk, n, order := m.blk, m.words, m.order
	// The leadStages rows, as equal-length slices: one bounds check on b0
	// covers all four loads.
	b0 := blk[order[0]][addrs[order[0]]*n:][:n]
	b1 := blk[order[1]][addrs[order[1]]*n:][:len(b0)]
	b2 := blk[order[2]][addrs[order[2]]*n:][:len(b0)]
	b3 := blk[order[3]][addrs[order[3]]*n:][:len(b0)]
	order = order[leadStages:]
	for i, c := range cand {
		for ; c != 0; c &= c - 1 {
			w := i<<6 + bits.TrailingZeros64(c)
			word := b0[w] & b1[w] & b2[w] & b3[w]
			if word == 0 {
				continue
			}
			for p := 0; word != 0 && p < len(order); p++ {
				s := order[p]
				word &= blk[s][addrs[s]*n+w]
			}
			if word != 0 {
				cand[i] = c & (c - 1)
				return w, word
			}
		}
		cand[i] = 0
	}
	return -1, 0
}

// matchInto computes the full match vector for the strides in sc.addrs into
// sc.acc and returns it: surviving words come from the walker, everything
// else is zero-filled without touching stage memory.
//
//pclass:hotpath
func (m *Memory) matchInto(sc *scratchState) bitvec.Vector {
	m.candidates(sc.addrs, sc.sum)
	accW := sc.acc.Words()
	for w := range accW {
		accW[w] = 0
	}
	for w, word := m.nextMatch(sc.addrs, sc.sum); w >= 0; w, word = m.nextMatch(sc.addrs, sc.sum) {
		accW[w] = word
	}
	return sc.acc
}

// FirstInWords returns the lowest entry of words [0, limit) — entries
// [0, 64·limit) — that matches the stage addresses addrs, one per stage as
// packet.Header.StridesInto or the generic extractor produce them, or -1.
// cand is the caller's candidate workspace, at least SummaryWords long; its
// contents are overwritten. It is the one first-match lookup: the front
// ends pass limit = every word and their pooled workspace, and the
// partitioned engine passes one stride extraction and one workspace to
// every part it visits, with limit cut to the words that can still beat
// its current winner. Allocation-free and safe for concurrent use with
// other lookups.
//
//pclass:hotpath
func (m *Memory) FirstInWords(addrs []int, limit int, cand []uint64) int {
	cand = cand[:(limit+63)>>6]
	m.candidates(addrs, cand)
	if r := limit & 63; r != 0 {
		cand[len(cand)-1] &= 1<<uint(r) - 1
	}
	w, word := m.nextMatch(addrs, cand)
	if w < 0 {
		return -1
	}
	return w<<6 + bits.TrailingZeros64(word)
}

// First returns the lowest entry matching key — ceil(W/8) bytes, MSB
// first — or -1. It is the lookup of a front end whose keys are byte
// strings (genbv); allocation-free in steady state and safe for concurrent
// use.
//
//pclass:hotpath
func (m *Memory) First(key []byte) int {
	sc := m.getScratch()
	m.stridesInto(key, sc.addrs)
	j := m.FirstInWords(sc.addrs, m.words, sc.sum)
	m.putScratch(sc)
	return j
}

// Match returns the multi-match vector for key, freshly allocated and owned
// by the caller.
func (m *Memory) Match(key []byte) bitvec.Vector {
	sc := m.getScratch()
	m.stridesInto(key, sc.addrs)
	v := m.matchInto(sc).Clone()
	m.putScratch(sc)
	return v
}

// StageVector exposes the stored vector at (stage, value) — a view of the
// stage block's row, not a copy — and is how everything outside the lookup
// kernel (cycle-accurate pipeline, traced classify, tests, the
// hardware-model netlist builder) reads stage memory. Mutating it directly
// bypasses both the copy-on-write detach and the summary maintenance: only
// do so on memory that owns its storage, and call RefreshSummaries
// afterwards (see the fault-injection tests).
func (m *Memory) StageVector(s, c int) bitvec.Vector {
	return bitvec.View(m.ne, m.blk[s][c*m.words:(c+1)*m.words])
}
