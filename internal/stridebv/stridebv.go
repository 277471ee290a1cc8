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

	"pktclass/internal/bitvec"
	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
)

// Engine is a functional StrideBV classifier over a ternary-expanded
// ruleset: the 5-tuple front end of Memory. Stage addresses come from
// packet.Header.StridesInto and a surviving entry resolves to its rule
// through the entry→rule map. Stage memory, its summaries and that map are
// the engine's whole state: the expansion it was built from is not kept,
// and every update supplies the patterns it writes.
type Engine struct {
	Memory
	// parent[j] is the rule entry j was expanded from. Never written after
	// construction, so delta children share it.
	parent   []int32
	numRules int
	// pending is the pattern UpdateEntry is writing. rewrite reads entries
	// through a callback, and one held here reaches it without a heap copy
	// per write.
	pending ruleset.Ternary
}

// New builds a StrideBV engine with stride k over the expanded ruleset.
// ex is read during the build and not retained.
func New(ex *ruleset.Expanded, k int) (*Engine, error) {
	m, err := BuildMemory(packet.W, k, ex.Len(), func(j int) (value, mask []byte, valid bool) {
		return pattern(&ex.Entries[j])
	})
	if err != nil {
		return nil, err
	}
	parent := make([]int32, len(ex.Parent))
	for j, p := range ex.Parent {
		parent[j] = int32(p)
	}
	return &Engine{Memory: m, parent: parent, numRules: ex.NumRules}, nil
}

// pattern returns a ternary entry as rewrite takes it.
func pattern(t *ruleset.Ternary) (value, mask []byte, valid bool) {
	return t.Value[:], t.Mask[:], !t.Invalid
}

// NewFSBV builds the k=1 Field-Split Bit Vector engine.
func NewFSBV(ex *ruleset.Expanded) (*Engine, error) { return New(ex, 1) }

// Name identifies the engine, including its stride.
func (e *Engine) Name() string { return fmt.Sprintf("stridebv-k%d", e.k) }

// NumRules returns the original rule count N.
func (e *Engine) NumRules() int { return e.numRules }

// Parents returns the entry→rule map: element j is the rule entry j was
// expanded from. The slice is the engine's own and must not be written.
func (e *Engine) Parents() []int32 { return e.parent }

// rules maps ascending entry indices to their deduplicated rules, in
// priority order: one rule's entries are contiguous.
func (e *Engine) rules(entries []int) []int {
	out := make([]int, 0, len(entries))
	for _, j := range entries {
		if p := int(e.parent[j]); len(out) == 0 || out[len(out)-1] != p {
			out = append(out, p)
		}
	}
	return out
}

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

// firstMatch returns the first surviving entry for a header, or -1 — the
// priority-encoder output. Words are walked in ascending entry order, so
// the first survivor word holds the highest-priority match and nothing
// after it can win.
//
//pclass:hotpath
func (e *Engine) firstMatch(h packet.Header, sc *scratchState) int {
	h.StridesInto(e.k, sc.addrs)
	return e.FirstInWords(sc.addrs, e.words, sc.cand)
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
	return int(e.parent[entry])
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
			out[i] = int(e.parent[entry])
		}
	}
	e.putScratch(sc)
}

// MultiMatch returns every matching rule index in priority order.
func (e *Engine) MultiMatch(h packet.Header) []int {
	sc := e.getScratch()
	h.StridesInto(e.k, sc.addrs)
	rules := e.rules(e.matchInto(sc).SetBits())
	e.putScratch(sc)
	return rules
}

// UpdateEntry reprograms ternary entry j in place, the incremental-update
// property of the bit-vector approach (no global rebuild required): it
// rewrites j's 64-entry group with j alone dirty and entry as its pattern,
// so every stage stores only the words whose bit j changes. The write
// restores entry j's column from scratch — the fault-scrub repair
// primitive — and allocates nothing in steady state on an engine that owns
// its storage. On a delta-derived engine (ApplyDeltas) a stage is
// un-aliased before the first stored word that differs in it, so the
// parent engine that concurrent readers may still hold is never mutated.
// The Expanded the engine was built from is never read or written.
//
// UpdateEntry mutates live stage memory and must not run concurrently with
// classification; for the publish-after-write variant that is safe under
// concurrent readers, see ApplyDeltas.
func (e *Engine) UpdateEntry(j int, entry ruleset.Ternary) error {
	if j < 0 || j >= e.ne {
		return fmt.Errorf("stridebv: entry %d out of range [0,%d)", j, e.ne)
	}
	e.pending = entry
	e.rewrite(j>>6, 1<<uint(j&63), func(int) (value, mask []byte, valid bool) { return pattern(&e.pending) })
	return nil
}

// InvalidateEntry disables entry j: its bit is cleared in every stage
// vector, so it can never survive the pipeline AND, and a serialized image
// keeps it dead. Like UpdateEntry, the write is copy-on-write safe on a
// delta-derived engine.
func (e *Engine) InvalidateEntry(j int) error {
	return e.UpdateEntry(j, ruleset.InvalidTernary())
}

// String summarises the engine configuration.
func (e *Engine) String() string {
	return fmt.Sprintf("%s{stages=%d entries=%d mem=%dKbit}",
		e.Name(), e.stages, e.ne, e.MemoryBits()/1024)
}
