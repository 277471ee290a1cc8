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
// through the expansion's parent map.
type Engine struct {
	Memory
	ex *ruleset.Expanded
	// ownsEntries is set once the engine has copied ex away from the
	// caller's Expanded (copy-on-first-update; see UpdateEntry).
	ownsEntries bool
}

// New builds a StrideBV engine with stride k over the expanded ruleset.
func New(ex *ruleset.Expanded, k int) (*Engine, error) {
	e := &Engine{ex: ex}
	m, err := BuildMemory(packet.W, k, ex.Len(), e.pattern)
	if err != nil {
		return nil, err
	}
	e.Memory = m
	return e, nil
}

// pattern returns entry j of the engine's table as rewrite takes it.
func (e *Engine) pattern(j int) (value, mask []byte, valid bool) {
	entry := &e.ex.Entries[j]
	return entry.Value[:], entry.Mask[:], !entry.Invalid
}

// NewFSBV builds the k=1 Field-Split Bit Vector engine.
func NewFSBV(ex *ruleset.Expanded) (*Engine, error) { return New(ex, 1) }

// Name identifies the engine, including its stride.
func (e *Engine) Name() string { return fmt.Sprintf("stridebv-k%d", e.k) }

// NumRules returns the original rule count N.
func (e *Engine) NumRules() int { return e.ex.NumRules }

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

// UpdateEntry reprograms ternary entry j in place, the incremental-update
// property of the bit-vector approach (no global rebuild required): it
// records the entry in the engine's table and rewrites j's 64-entry group
// with j alone dirty, so every stage stores only the words whose bit j
// changes. The write restores entry j's column from scratch — the
// fault-scrub repair primitive — and allocates nothing in steady state on an
// engine that owns its storage. On a delta-derived engine (ApplyDeltas) a
// stage is un-aliased before the first stored word that differs in it, so
// the parent engine that concurrent readers may still hold is never mutated.
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
	e.rewrite(j>>6, 1<<uint(j&63), e.pattern)
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

// Expanded returns the engine's view of the expanded ruleset. Until the
// first UpdateEntry this is the Expanded the engine was built over; after
// it, the engine's private copy with updates applied.
func (e *Engine) Expanded() *ruleset.Expanded { return e.ex }

// String summarises the engine configuration.
func (e *Engine) String() string {
	return fmt.Sprintf("%s{stages=%d entries=%d mem=%dKbit}",
		e.Name(), e.stages, e.ne, e.MemoryBits()/1024)
}
