package stridebv

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
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
// BuildMemory is rewrite over fresh blocks, a delta child (ApplyDeltas) is
// rewrite over the touched groups before it is published. Memory a reader
// can see is never written again. rewrite programs a group from bit planes
// — for each key bit, which of the group's entries care about it and which
// want it set — so a group costs its entries' care bits plus about 2^(k+1)
// word operations a stage. The front ends embed it and differ only
// in how a lookup's stage addresses are produced and in what a surviving
// entry means: Engine (the packed 5-tuple, entries resolved through its
// entry→rule map), RangeEngine (the 72 prefix bits, port bounds
// tested on the survivors) and genbv.Engine (any width, byte-string keys,
// which is why the type is exported).
type Memory struct {
	w, k, stages, ne int
	// words is the length of one stage row — the Ne-bit vector one stride
	// value addresses — in 64-bit words, sumWords that of a lead summary row.
	words, sumWords int
	// blk[s] is stage s's whole memory, 2^k rows of words words each:
	// blk[s][c·words+w] is word w of the vector for stride value c. Rows are
	// contiguous, so the words a lookup reads from one stage stream
	// sequentially. A delta-derived engine (ApplyDeltas) shares a stage's
	// block with its parent until rewrite stores a word that differs in it.
	//
	//pclass:cow
	blk [][]uint64
	// shared[s] means blk[s] still aliases the engine this one was
	// delta-derived from (ApplyDeltas); nil for memories built from scratch.
	// rewrite clones the stage's block before it stores the first word that
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
	// lead holds the lead summaries, the summary index: the lead stages
	// order[0..3] in groups of span (leadSpan), each 2^(span·k) rows of
	// sumWords words. Bit w of row g·2^(span·k) + a₀‖a₁… (group g's strides,
	// its first stage's most significant) is set iff the AND of the group's
	// stage rows is nonzero at word w. Reorder derives it for the current
	// lead, rewrite keeps the groups it stores in current, and a delta child
	// gets its own copy.
	lead []uint64
	span int
	// scratch recycles per-goroutine lookup state so the classification fast
	// path allocates nothing in steady state. It is held by pointer so a
	// delta-derived engine (ApplyDeltas) shares the pool with its parent:
	// the dimensions are identical and the warm workspaces survive swaps.
	scratch *sync.Pool
}

// scratchState is one goroutine's reusable workspace, recycled through the
// memory's pool: a key's stage addresses, the candidate words left to walk
// (see candidates), for matchInto only the full result vector, and for
// rewrite only the group's bit planes, made on a workspace's first write —
// the care planes, then the value planes, one word per key bit each and
// padded to a multiple of 64 key bits, then 2^k words for a stage's rows.
//
//pclass:pooled
type scratchState struct {
	addrs  []int
	cand   []uint64
	acc    bitvec.Vector
	planes []uint64
}

// MinStride and MaxStride bound supported stride lengths. The paper uses 3
// and 4; larger strides square the per-stage memory (2^k growth), smaller
// ones add stages.
const (
	MinStride = 1
	MaxStride = 8
)

// leadStages is how many stages (the sparsest ones, see Memory.order) the
// lead summaries cover, and the word walker ANDs before it first tests
// the partial result. Nearly every candidate word dies within them, which
// turns the "word died" branch from a coin flip per stage into one
// predictable branch per candidate. A key with fewer stages (W = 8, k = 8
// has one) repeats its sparsest stage to fill the lead; see Reorder.
const leadStages = 4

// leadBits bounds a lead summary group's address: at most 2^8 rows.
const leadBits = 8

// leadSpan returns how many lead stages one lead summary group spans at
// stride k: all four at k = 1 and 2, pairs at k = 3 and 4, one at k >= 5.
func leadSpan(k int) int { return min(leadStages, leadBits/k) }

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
	m.blk, m.ones = m.makeBlocks(), make([]int, m.stages)
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
		span:     leadSpan(k),
		scratch:  new(sync.Pool),
	}
}

// makeBlocks allocates one zeroed block per stage: 2^k rows of words words.
func (m *Memory) makeBlocks() [][]uint64 {
	b := make([][]uint64, m.stages)
	for s := range b {
		b[s] = make([]uint64, m.words<<uint(m.k))
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
		cand:  make([]uint64, m.sumWords),
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
// the stage populations, the walk order and the lead summaries. None of it
// exists in hardware, so code that mutates stage memory directly through
// StageVector (fault injection, scrub tooling) must refresh before
// classifying; rewrite, behind BuildMemory and ApplyDeltas, maintains it
// from the words it stores. The lead summaries are rebuilt into a fresh
// block, never in place, so a memory copied by value keeps its own.
func (m *Memory) RefreshSummaries() {
	ones := make([]int, m.stages)
	for s, blk := range m.blk {
		for _, word := range blk {
			ones[s] += bits.OnesCount64(word)
		}
	}
	m.ones, m.lead = ones, nil
	m.Reorder()
}

// Reorder re-sorts the walk order by the current stage populations and, when
// that changes the lead stages (or there are no lead summaries yet),
// derives the lead summaries for the new lead into a fresh block. The
// constructors, RefreshSummaries and ApplyDeltas end with it, so every
// memory a reader sees walks its stages sparsest first. A key with fewer
// than leadStages stages repeats its sparsest one until the walker's
// unconditional lead is full: AND is idempotent, so the duplicate loads
// change nothing.
func (m *Memory) Reorder() {
	order := make([]int, m.stages, max(m.stages, leadStages))
	for s := range order {
		order[s] = s
	}
	sort.SliceStable(order, func(a, b int) bool { return m.ones[order[a]] < m.ones[order[b]] })
	for len(order) < leadStages {
		order = append(order, order[0])
	}
	old := m.order
	m.order = order
	if m.lead != nil && slices.Equal(old[:leadStages], order[:leadStages]) {
		return
	}
	m.lead = make([]uint64, leadStages/m.span*m.sumWords<<uint(m.span*m.k))
	for wi := 0; wi < m.words; wi++ {
		for g := 0; g*m.span < leadStages; g++ {
			m.refreshLead(g, wi)
		}
	}
}

// refreshLead derives word wi's bit in every row of lead summary group g
// from the stored words. Each stage expands the ANDs of the stages before
// it in place, last prefix first so none is overwritten before it is read.
func (m *Memory) refreshLead(g, wi int) {
	var and [1 << leadBits]uint64
	and[0] = ^uint64(0)
	k, rows := uint(m.k), 1
	for _, s := range m.order[g*m.span:][:m.span] {
		col := m.blk[s][wi:]
		for a := rows - 1; a >= 0; a-- {
			x := and[a]
			for c := 1<<k - 1; c >= 0; c-- {
				and[a<<k|c] = x & col[c*m.words]
			}
		}
		rows <<= k
	}
	lead, b := m.lead[g*rows*m.sumWords+wi>>6:], uint(wi&63)
	for a, x := range and[:rows] {
		i := a * m.sumWords
		lead[i] = lead[i]&^(1<<b) | (x|-x)>>63<<b // (x|-x)>>63: x != 0
	}
}

// rewrite is the one writer of stage memory. It reprograms the columns of
// the dirty entries of 64-entry group wi — entry(j) returns entry j's
// pattern as BuildMemory takes it — and leaves every other bit as stored.
// The valid dirty entries are first scattered into bit planes of the group
// (planes), two words per key bit i: bit b of care[i] means entry b cares
// about bit i, bit b of val[i] that it also wants the bit set, so an entry
// costs its care bits. Each stage then forms its 2^k row words by doubling
// over its k planes: starting from rows[0] = live, an address bit that is
// 1 drops the entries that care about it and want it 0, one that is 0
// drops those that want it 1. The doubling runs least significant bit
// first and two planes a pass (k = 4 takes passes of 1 and 4 iterations):
// about 2^(k+1) word operations a stage, whatever the number of dirty
// entries. The rows are merged as old &^ dirty | formed: bits of entries
// that are not dirty always come from the stored words, never from an
// entry table (the engines keep none). Only words that change are stored,
// and the stage population and the lead summary groups follow the stored
// words. A stage block still shared with a delta parent is detached before
// its first store and never otherwise, so a stage the rewrite does not
// change stays shared. The stage loop makes no call but that detach, and
// the scatter is out of line, so that the loop keeps its variables in
// registers: with either inline, they spill and a single-entry write runs
// about 30 % slower. cowwrite keeps this the only write path. It writes
// only memory no reader can see yet: a BuildMemory in progress or a delta
// child before ApplyDeltas returns it.
//
//pclass:cow-mutator
func (m *Memory) rewrite(wi int, dirty uint64, entry func(j int) (value, mask []byte, valid bool)) {
	sc := m.getScratch()
	care, val, rows, live := m.planes(sc, wi, dirty, entry)
	k, words := m.k, m.words
	// Bits past W (final-stage padding) are cared about and zero: they only
	// match the zero padding the key side generates.
	for i := m.w; i < m.stages*k; i++ {
		care[i] = live
	}
	var stale uint // bit g: a stage of lead summary group g stored a word
	for s := 0; s < m.stages; s++ {
		c, v := care[s*k:][:k], val[s*k:][:k]
		// One plane first if k is odd; then each pass makes 4n rows of n.
		i, n := k-1, 1
		rows[0] = live
		if k&1 != 0 {
			rows[0], rows[1] = live&^(c[i]&v[i]), live&^(c[i]&^v[i])
			i, n = i-1, 2
		}
		for ; i > 0; i, n = i-2, n<<2 {
			p1, p0 := c[i]&^v[i], c[i]&v[i] // excluded where bit i is 1, 0
			q1, q0 := c[i-1]&^v[i-1], c[i-1]&v[i-1]
			r0 := rows[:n]
			r1, r2, r3 := rows[n:][:len(r0)], rows[2*n:][:len(r0)], rows[3*n:][:len(r0)]
			for r, x := range r0 {
				r3[r] = x &^ (p1 | q1)
				r2[r] = x &^ (p0 | q1)
				r1[r] = x &^ (p1 | q0)
				r0[r] = x &^ (p0 | q0)
			}
		}
		blk := m.blk[s]
		if m.shared != nil && m.shared[s] {
			if !differs(blk[wi:], rows, words, dirty) {
				continue
			}
			blk = append([]uint64(nil), blk...)
			m.blk[s], m.shared[s] = blk, false
		}
		ones, stored := 0, false
		for r, f := range rows {
			i := r*words + wi
			old := blk[i]
			if word := old&^dirty | f; word != old {
				blk[i] = word
				ones += bits.OnesCount64(word) - bits.OnesCount64(old)
				stored = true
			}
		}
		m.ones[s] += ones
		for p := 0; stored && m.lead != nil && p < leadStages; p++ {
			if m.order[p] == s {
				stale |= 1 << uint(p/m.span)
			}
		}
	}
	for g := 0; stale != 0; g, stale = g+1, stale>>1 {
		if stale&1 != 0 {
			m.refreshLead(g, wi)
		}
	}
	m.putScratch(sc)
}

// planes scatters the valid dirty entries of group wi into sc's bit
// planes, made on the workspace's first write, and returns the care and
// value planes, 2^k words of scratch for a stage's rows and the valid
// dirty entries.
func (m *Memory) planes(sc *scratchState, wi int, dirty uint64, entry func(j int) (value, mask []byte, valid bool)) (care, val, rows []uint64, live uint64) {
	kb := m.stages * m.k  // key bits, the last stage's padding included
	pl := (kb + 63) &^ 63 // a plane's length: whole chunks
	if sc.planes == nil {
		sc.planes = make([]uint64, 2*pl+1<<uint(m.k))
	}
	care, val, rows = sc.planes[:pl], sc.planes[pl:2*pl], sc.planes[2*pl:]
	clear(sc.planes[:2*pl])
	for rest := dirty; rest != 0; rest &= rest - 1 {
		b := bits.TrailingZeros64(rest)
		value, mask, valid := entry(wi<<6 + b)
		if !valid {
			continue
		}
		live |= 1 << uint(b)
		m.scatter(care, val, value, mask, 1<<uint(b))
	}
	return care, val, rows[:1<<uint(m.k)], live
}

// differs reports whether merging the formed rows into col — a group's
// word of each row, words apart — would change a stored word.
func differs(col, formed []uint64, words int, dirty uint64) bool {
	for r, f := range formed {
		if old := col[r*words]; old&^dirty|f != old {
			return true
		}
	}
	return false
}

// scatter ORs bit into care[i] for every key bit i < W the pattern (mask
// bit 1 = care) cares about, and into val[i] for every such bit it wants
// set. The pattern is read in 8-byte big-endian chunks, bit-reversed so
// that a chunk's bit t is key bit 8q+t, and only its set bits are visited:
// an entry costs its care bits, not W. The planes are padded to a whole
// chunk, so indexing them needs no bounds check.
func (m *Memory) scatter(care, val []uint64, value, mask []byte, bit uint64) {
	for q := 0; q<<3 < m.w; q += 8 {
		mc := chunk(mask, q)
		if rest := m.w - q<<3; rest < 64 {
			mc &= ^uint64(0) << uint(64-rest) // drop the bits past W
		}
		vc := bits.Reverse64(chunk(value, q))
		mc = bits.Reverse64(mc)
		c, v := care[q<<3:][:64], val[q<<3:][:64]
		for ; mc != 0; mc &= mc - 1 {
			t := bits.TrailingZeros64(mc) & 63
			c[t] |= bit
			v[t] |= bit & -(vc >> uint(t) & 1)
		}
	}
}

// chunk returns bytes [q, q+8) of b as a big-endian word, bytes past the
// end of b reading as zero.
func chunk(b []byte, q int) uint64 {
	switch {
	case q+8 <= len(b):
		return binary.BigEndian.Uint64(b[q:])
	case len(b) >= 8: // the last 8 bytes, shifted up past those before q
		return binary.BigEndian.Uint64(b[len(b)-8:]) << uint(8*(q+8-len(b)))
	}
	var x uint64
	n := 0
	for ; q+n < len(b); n++ {
		x = x<<8 | uint64(b[q+n])
	}
	return x << uint(64-8*n)
}

// stridesInto is the one generic stride extractor: dst[s] becomes bits
// [s·k, (s+1)·k) of key — ceil(W/8) bytes, MSB first (bit i is bit 7-i%8 of
// byte i/8, the packet.Key layout) — and every position from W on, the tail
// of the last byte and the final stage's padding, reads as zero whatever
// key holds there.
// The Range and generic-width lookups use it; the 5-tuple lookup keeps
// packet.Header.StridesInto, the divide-free two-word form of the same
// function.
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

// candidates fills cand with the AND of the lead summary rows the stage
// addresses select, one per group: a superset of the words that can be
// nonzero in the final result (one summary word covers 4096 entries), and
// only words whose lead AND can survive: 1.5 per packet on a 2048-rule
// firewall set (EXPERIMENTS.md, "Lead summaries").
//
//pclass:hotpath
func (m *Memory) candidates(addrs []int, cand []uint64) {
	order, k, sw, span := m.order, uint(m.k), m.sumWords, m.span
	for i := range cand {
		cand[i] = ^uint64(0)
	}
	for g := 0; g*span < leadStages; g++ {
		r := g
		for _, s := range order[g*span:][:span] {
			r = r<<k | addrs[s]
		}
		for i, x := range m.lead[r*sw:][:len(cand)] {
			cand[i] &= x
		}
	}
}

// nextMatch is the one summary-guided word walker every lookup shares. It
// takes the next candidates off cand, in ascending order, until one
// survives the AND of every row addrs selects, and returns that word's
// index and value — or (-1, 0) once the candidates are spent. Only
// candidate words are ever read, in m.order: the leadStages sparsest rows
// unconditionally, the rest through confirm.
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
			if word = confirm(blk, order, addrs, n, w, word); word != 0 {
				cand[i] = c & (c - 1)
				return w, word
			}
		}
		cand[i] = 0
	}
	return -1, 0
}

// confirm ANDs word w of the rows addrs selects in the stages order lists
// into word until it dies. Out of line, its loop keeps its variables in
// registers; inline in nextMatch, about six spill and reload every stage.
//
//go:noinline
func confirm(blk [][]uint64, order, addrs []int, n, w int, word uint64) uint64 {
	for _, s := range order {
		word &= blk[s][addrs[s]*n+w]
		if word == 0 {
			break
		}
	}
	return word
}

// matchInto computes the full match vector for the strides in sc.addrs into
// sc.acc and returns it: surviving words come from the walker, everything
// else is zero-filled without touching stage memory.
//
//pclass:hotpath
func (m *Memory) matchInto(sc *scratchState) bitvec.Vector {
	m.candidates(sc.addrs, sc.cand)
	accW := sc.acc.Words()
	for w := range accW {
		accW[w] = 0
	}
	for w, word := m.nextMatch(sc.addrs, sc.cand); w >= 0; w, word = m.nextMatch(sc.addrs, sc.cand) {
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
	j := m.FirstInWords(sc.addrs, m.words, sc.cand)
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
