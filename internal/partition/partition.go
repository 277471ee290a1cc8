// Package partition breaks the paper's 2048-rule evaluation ceiling: it
// splits a ruleset into P sub-engines — parallel on the fabric, searched
// one after another on the calling goroutine here — and merges the
// per-partition winners by priority (lowest global rule index wins).
//
// The paper's engines are deliberately ruleset-feature independent, but
// their cost is O(Ne) per lookup, which caps practical ruleset size. The
// FPGA literature scales these architectures by partitioning: balanced
// sub-tries searched by bidirectional pipelines ("Bidirectional Pipelining
// for Scalable IP Lookup and Packet Classification") and key-steered
// parallel sub-engines ("High Performance Architecture for Flow-Table
// Lookup in SDN on FPGA"). This package reproduces both organizations in
// software:
//
//   - PrefixSplit reuses the pre-decoder idea from tcam.Partitioned at the
//     ruleset level: rules whose destination-IP prefix covers the top B
//     bits land in one of 2^B DIP buckets; rules that wildcard the DIP
//     head but pin the source-IP head land in an SIP bucket; the residual
//     (both heads short) is split into priority bands. A lookup touches
//     one DIP bucket, one SIP bucket and the residual bands — typically a
//     small fraction of N — so classification cost grows with bucket
//     population, not ruleset size.
//   - BandSplit slices the ruleset into P contiguous priority bands
//     balanced by ternary entry count (the hardware unit of cost). Every
//     band is searched for every packet; in hardware the point is parallel
//     latency, here it is the feature-independent fallback when the ruleset
//     has no prefix structure to steer on.
//
// Each partition is itself any core.Engine (StrideBV with its own stage
// memories, a TCAM model, the linear reference) built by the caller's
// Build hook over the partition's sub-ruleset. Results are identical to a
// flat engine over the whole ruleset: every rule lives in exactly one
// partition, and the cross-partition merge takes the minimum surviving
// global rule index. A lookup, single or batched, visits the parts one
// packet at a time in one loop and skips a part whose first rule cannot
// beat the winner so far. It walks a bare StrideBV part's stage memory
// itself, only as far as the winner can still be beaten, over strides
// extracted once per packet and again only for a part of another stride;
// every other part answers through its own Classify.
//
// The package starts no goroutines: a lookup, single or batched, runs to
// completion on its caller, and callers that want cores (internal/serve)
// bring their own workers.
package partition

import (
	"fmt"
	"math"
	"sync"

	"pktclass/internal/core"
	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
	"pktclass/internal/stridebv"
)

// Splitter selects the rule-to-partition assignment policy.
type Splitter string

const (
	// PrefixSplit steers by IP prefix heads (DIP buckets, SIP fallback,
	// residual priority bands) — sub-linear lookups on structured rulesets.
	PrefixSplit Splitter = "prefix"
	// BandSplit slices into contiguous priority bands balanced by entry
	// count — feature-independent, every band searched per packet.
	BandSplit Splitter = "band"
)

// MaxPrefixBits bounds the pre-decoder width (2^B buckets per IP field).
const MaxPrefixBits = 10

// Config parameterizes the partitioning layer.
type Config struct {
	// Splitter is the assignment policy; default PrefixSplit.
	Splitter Splitter
	// Parts is the band count (BandSplit) or residual band count
	// (PrefixSplit). 0 means defaultBands.
	Parts int
	// PrefixBits is the pre-decoder width B for PrefixSplit; 0 sizes it
	// from N so the average bucket holds ~2048 rules (the paper's proven
	// operating point for a flat engine).
	PrefixBits int
	// Build constructs the sub-engine over one partition's ruleset.
	Build func(*ruleset.RuleSet) (core.Engine, error)
}

// part is one sub-engine plus its local-to-global rule index map.
type part struct {
	eng core.Engine
	// global[l] is the original ruleset index of the part's rule l. It is
	// strictly increasing: partitions preserve relative priority.
	global []int32
	// minGlobal = global[0]; a searched part whose best possible result
	// already loses to the current winner is skipped.
	minGlobal int32
	// sbv is eng when it is a bare StrideBV engine whose entries
	// entryGlobal covers, and the lookup walks its stage memory itself;
	// otherwise sbv is nil and the lookup calls eng.Classify.
	// entryGlobal[j] = global[Parent[j]] is the global rule of its entry j,
	// non-decreasing in j; a delta child shares it, since single-entry
	// deltas leave Parent alone.
	sbv         *stridebv.Engine
	entryGlobal []int32
	// kind/bucket record the steering identity the part was built under,
	// so the incremental-update path can verify a replacement entry still
	// steers to the same part.
	kind   steerKind
	bucket int32
}

// partLoc locates a global rule inside the partition set.
type partLoc struct{ part, local int32 }

// Engine is the partitioned classifier. It implements core.Engine and
// core.BatchClassifier; both run each packet through first, which searches
// the parts the packet steers to in turn and min-merges their winners.
type Engine struct {
	rs         *ruleset.RuleSet
	splitter   Splitter
	prefixBits int
	parts      []part
	// dipPart/sipPart map a bucket value to an index into parts, -1 when
	// the bucket holds no rules. Empty (nil) under BandSplit.
	dipPart []int32
	sipPart []int32
	// always lists the parts searched for every packet: the residual
	// bands under PrefixSplit, every band under BandSplit.
	always []int32
	// loc[g] locates global rule g for the incremental-update path.
	loc []partLoc
	// candWords is the largest candidate workspace a StrideBV part's walk
	// needs.
	candWords int
	scratch   *sync.Pool
	subName   string
}

// New partitions rs under cfg and builds every sub-engine.
func New(rs *ruleset.RuleSet, cfg Config) (*Engine, error) {
	if rs == nil || rs.Len() == 0 {
		return nil, fmt.Errorf("partition: empty ruleset")
	}
	if cfg.Build == nil {
		return nil, fmt.Errorf("partition: Config.Build is required")
	}
	switch cfg.Splitter {
	case "":
		cfg.Splitter = PrefixSplit
	case PrefixSplit, BandSplit:
	default:
		return nil, fmt.Errorf("partition: unknown splitter %q", cfg.Splitter)
	}
	if cfg.Parts < 0 || cfg.Parts > 64 {
		return nil, fmt.Errorf("partition: band count %d outside [0,64]", cfg.Parts)
	}
	if cfg.Parts == 0 {
		cfg.Parts = defaultBands
	}
	if cfg.PrefixBits < 0 || cfg.PrefixBits > MaxPrefixBits {
		return nil, fmt.Errorf("partition: prefix bits %d outside [0,%d]", cfg.PrefixBits, MaxPrefixBits)
	}

	e := &Engine{
		rs:       rs,
		splitter: cfg.Splitter,
		scratch:  new(sync.Pool),
		loc:      make([]partLoc, rs.Len()),
	}

	// Assign every rule to exactly one group, preserving rule order within
	// each group so local index order == priority order.
	type group struct {
		idx    []int32
		kind   steerKind
		bucket int32
	}
	var groups []group
	if cfg.Splitter == BandSplit {
		for _, g := range bandGroups(rs.Rules, cfg.Parts, nil) {
			e.always = append(e.always, int32(len(groups)))
			groups = append(groups, group{idx: g})
		}
	} else {
		if cfg.PrefixBits == 0 {
			cfg.PrefixBits = autoPrefixBits(rs.Len())
		}
		e.prefixBits = cfg.PrefixBits
		nb := 1 << uint(cfg.PrefixBits)
		dip := make([][]int32, nb)
		sip := make([][]int32, nb)
		var residual []int32
		for g, r := range rs.Rules {
			switch kind, b := steerRule(r, cfg.PrefixBits); kind {
			case steerDIP:
				dip[b] = append(dip[b], int32(g))
			case steerSIP:
				sip[b] = append(sip[b], int32(g))
			default:
				residual = append(residual, int32(g))
			}
		}
		e.dipPart = make([]int32, nb)
		e.sipPart = make([]int32, nb)
		for b := 0; b < nb; b++ {
			e.dipPart[b] = -1
			e.sipPart[b] = -1
		}
		for b, g := range dip {
			if len(g) > 0 {
				e.dipPart[b] = int32(len(groups))
				groups = append(groups, group{idx: g, kind: steerDIP, bucket: int32(b)})
			}
		}
		for b, g := range sip {
			if len(g) > 0 {
				e.sipPart[b] = int32(len(groups))
				groups = append(groups, group{idx: g, kind: steerSIP, bucket: int32(b)})
			}
		}
		for _, g := range bandGroups(rs.Rules, cfg.Parts, residual) {
			e.always = append(e.always, int32(len(groups)))
			groups = append(groups, group{idx: g})
		}
	}

	e.parts = make([]part, len(groups))
	for pi, g := range groups {
		sub := make([]ruleset.Rule, len(g.idx))
		for l, gi := range g.idx {
			sub[l] = rs.Rules[gi]
			e.loc[gi] = partLoc{part: int32(pi), local: int32(l)}
		}
		eng, err := cfg.Build(ruleset.New(sub))
		if err != nil {
			return nil, fmt.Errorf("partition: building part %d (%d rules): %w", pi, len(g.idx), err)
		}
		p := part{eng: eng, global: g.idx, minGlobal: g.idx[0], kind: g.kind, bucket: g.bucket}
		if p.sbv, _ = eng.(*stridebv.Engine); p.sbv != nil {
			parent := p.sbv.Parents()
			p.entryGlobal = make([]int32, len(parent))
			for j, l := range parent {
				p.entryGlobal[j] = g.idx[l]
			}
			e.candWords = max(e.candWords, p.sbv.SummaryWords())
		}
		e.parts[pi] = p
	}
	e.subName = e.parts[0].eng.Name()
	return e, nil
}

// defaultBands is the residual/band count when Config.Parts is 0. It is a
// constant so geometry (and therefore speed) never depends on the machine:
// every always-searched band is one more walk per packet. One band per
// 2048 entries, the flat engine's ceiling, was measured slower
// (EXPERIMENTS.md, "One stride extraction per packet").
const defaultBands = 1

// autoPrefixBits sizes the pre-decoder so the average DIP bucket holds
// about 2048 rules — the flat engines' proven operating point.
func autoPrefixBits(n int) int {
	b := 1
	for b < MaxPrefixBits && n>>uint(b) > 2048 {
		b++
	}
	return b
}

type steerKind uint8

const (
	steerResidual steerKind = iota
	steerDIP
	steerSIP
)

// steerRule decides which group a rule belongs to under PrefixSplit: a
// rule whose DIP prefix pins the top B bits matches only headers whose DIP
// head equals those bits, so it is only ever searched for such headers;
// SIP is the fallback steering field; everything else is residual.
func steerRule(r ruleset.Rule, b int) (steerKind, int) {
	if r.DIP.Len >= b {
		return steerDIP, int(r.DIP.Value >> uint(32-b))
	}
	if r.SIP.Len >= b {
		return steerSIP, int(r.SIP.Value >> uint(32-b))
	}
	return steerResidual, 0
}

// steerTernary recomputes steerRule from an expanded ternary entry (the
// incremental-update form, where the original Rule is not available): the
// top B bits of a field steer iff they are all care bits. An invalidated
// entry matches nothing and is safe wherever it currently lives.
func steerTernary(t ruleset.Ternary, b int) (steerKind, int, bool) {
	if t.Invalid {
		return steerResidual, 0, false
	}
	if headCared(t, packet.DIPOff, b) {
		return steerDIP, t.Value.Stride(packet.DIPOff, b), true
	}
	if headCared(t, packet.SIPOff, b) {
		return steerSIP, t.Value.Stride(packet.SIPOff, b), true
	}
	return steerResidual, 0, true
}

func headCared(t ruleset.Ternary, off, b int) bool {
	for i := off; i < off+b; i++ {
		if t.Mask.Bit(i) == 0 {
			return false
		}
	}
	return true
}

// bandGroups splits the rules named by idx (or all rules when idx is nil)
// into at most bands contiguous groups balanced by ternary expansion
// weight — the entry count each rule costs a bit-vector engine.
func bandGroups(rules []ruleset.Rule, bands int, idx []int32) [][]int32 {
	if idx == nil {
		idx = make([]int32, len(rules))
		for i := range idx {
			idx[i] = int32(i)
		}
	}
	if len(idx) == 0 {
		return nil
	}
	total := 0
	weight := make([]int, len(idx))
	for i, gi := range idx {
		weight[i] = rules[gi].ExpansionFactor()
		total += weight[i]
	}
	if bands > len(idx) {
		bands = len(idx)
	}
	target := (total + bands - 1) / bands
	var out [][]int32
	var cur []int32
	acc := 0
	for i, gi := range idx {
		cur = append(cur, gi)
		acc += weight[i]
		if acc >= target && len(out)+1 < bands {
			out = append(out, cur)
			cur, acc = nil, 0
		}
	}
	if len(cur) > 0 {
		out = append(out, cur)
	}
	return out
}

// Name identifies the engine: splitter policy, partition count and the
// sub-engine family.
func (e *Engine) Name() string {
	return fmt.Sprintf("part-%s-p%d(%s)", e.splitter, len(e.parts), e.subName)
}

// NumRules returns the original rule count N.
func (e *Engine) NumRules() int { return e.rs.Len() }

// NumParts returns the partition count.
func (e *Engine) NumParts() int { return len(e.parts) }

// steer returns the DIP- and SIP-bucket parts h is searched in, -1 for an
// empty bucket (and always under BandSplit, which has no buckets).
//
//pclass:hotpath
func (e *Engine) steer(h packet.Header) (dip, sip int32) {
	if e.splitter != PrefixSplit {
		return -1, -1
	}
	s := uint(32 - e.prefixBits)
	return e.dipPart[h.DIP>>s], e.sipPart[h.SIP>>s]
}

// first returns h's winner, the minimum global rule index over every part
// h steers to (math.MaxInt32 for none), visiting the DIP part, the SIP part
// and the always-searched parts in that order. Before steering, it
// extracts h's strides at sc.k, the last stride walked: over parts of one
// k this is the packet's only extraction, and extracting up front measured
// faster than extracting at the first walked part.
//
//pclass:hotpath
func (e *Engine) first(h packet.Header, sc *batchScratch) int32 {
	if sc.k != 0 {
		h.StridesInto(sc.k, sc.addrs[:])
	}
	best := int32(math.MaxInt32)
	dip, sip := e.steer(h)
	if dip >= 0 {
		best = e.search(dip, h, sc, best)
	}
	if sip >= 0 {
		best = e.search(sip, h, sc, best)
	}
	for _, pi := range e.always {
		best = e.search(pi, h, sc, best)
	}
	return best
}

// search searches part pi for h and merges its winner into best by
// priority (minimum global rule index). A part without a StrideBV memory
// answers through Classify. A StrideBV part's stage memory is walked over
// h's strides at the part's k, extracted into sc unless sc already holds
// that k, and only over the words whose first entry beats best:
// entryGlobal is non-decreasing, so those words are a prefix, found by
// binary search, and a survivor in the last of them that does not beat
// best is dropped.
//
//pclass:hotpath
func (e *Engine) search(pi int32, h packet.Header, sc *batchScratch, best int32) int32 {
	p := &e.parts[pi]
	if p.minGlobal >= best {
		// Even the part's highest-priority rule loses to the current
		// winner.
		return best
	}
	if p.sbv == nil {
		if l := p.eng.Classify(h); l >= 0 && p.global[l] < best {
			return p.global[l]
		}
		return best
	}
	if k := p.sbv.Stride(); k != sc.k {
		h.StridesInto(k, sc.addrs[:])
		sc.k = k
	}
	limit := p.sbv.Words()
	if best != math.MaxInt32 {
		lo := 0
		for lo < limit {
			if mid := int(uint(lo+limit) >> 1); p.entryGlobal[mid<<6] < best {
				lo = mid + 1
			} else {
				limit = mid
			}
		}
	}
	if j := p.sbv.FirstInWords(sc.addrs[:], limit, sc.cand); j >= 0 && p.entryGlobal[j] < best {
		return p.entryGlobal[j]
	}
	return best
}

// result maps a winner from first to a rule index, -1 for none.
func result(best int32) int {
	if best == math.MaxInt32 {
		return -1
	}
	return int(best)
}

// Classify returns the highest-priority matching rule index, or -1: the
// minimum surviving global rule index over every partition h steers to.
//
//pclass:hotpath
func (e *Engine) Classify(h packet.Header) int {
	sc := e.getBatchScratch()
	best := e.first(h, sc)
	e.scratch.Put(sc)
	return result(best)
}

// MultiMatch returns every matching rule index in priority order: the
// steered partitions' lists (each already ascending in global index) are
// k-way merged.
func (e *Engine) MultiMatch(h packet.Header) []int {
	var lists [][]int
	add := func(pi int32) {
		p := &e.parts[pi]
		local := p.eng.MultiMatch(h)
		if len(local) == 0 {
			return
		}
		global := make([]int, len(local))
		for i, l := range local {
			global[i] = int(p.global[l])
		}
		lists = append(lists, global)
	}
	dip, sip := e.steer(h)
	if dip >= 0 {
		add(dip)
	}
	if sip >= 0 {
		add(sip)
	}
	for _, pi := range e.always {
		add(pi)
	}
	return mergeSorted(lists)
}

// mergeSorted merges ascending lists into one ascending list. Partition
// assignment is a true partition of the ruleset, so no index repeats.
func mergeSorted(lists [][]int) []int {
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return lists[0]
	}
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	out := make([]int, 0, n)
	for {
		bi, bv := -1, 0
		for i, l := range lists {
			if len(l) > 0 && (bi < 0 || l[0] < bv) {
				bi, bv = i, l[0]
			}
		}
		if bi < 0 {
			return out
		}
		out = append(out, bv)
		lists[bi] = lists[bi][1:]
	}
}

// String summarises the partition geometry, including bucket balance (rules
// in the largest part against the mean) — what the splitter is there to keep
// even — and the pre-decoder width B, which only PrefixSplit has.
func (e *Engine) String() string {
	largest := 0
	for _, p := range e.parts {
		largest = max(largest, len(p.global))
	}
	s := fmt.Sprintf("%s{parts=%d always=%d largest=%d mean=%.1f",
		e.Name(), len(e.parts), len(e.always), largest, float64(e.rs.Len())/float64(len(e.parts)))
	if e.prefixBits > 0 {
		s += fmt.Sprintf(" B=%d", e.prefixBits)
	}
	return s + "}"
}
