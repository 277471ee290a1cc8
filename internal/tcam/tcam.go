// Package tcam implements Ternary Content Addressable Memory engines for
// packet classification: a behavioral model (the semantic specification of
// a TCAM search), the FPGA implementation built from SRL16E cells with the
// control block of the paper's Figure 3, and the ASIC TCAM power model the
// paper quotes in Section IV-C.
package tcam

import (
	"fmt"

	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
)

// Behavioral is the reference TCAM, built as an extended TCAM (Spitznagel,
// Taylor and Turner, ICNP 2003): one row per rule, searched in parallel
// (semantics: all compared, lowest index wins), each row a packed ternary
// word with a range comparator beside each port field. Row i is rule i, so
// a port range costs one row instead of its prefix cross product and no
// entry→rule map is kept. tcam.FPGA and tcam.Partitioned stay on the
// expanded entries of the paper's Section II.
type Behavioral struct {
	// rows[i] is rule i's cover word and bounds[i] its port bounds. Both
	// are shared with nothing until ApplyDeltas, which copies them for the
	// child before writing the child's rows.
	//
	//pclass:cow
	rows []row
	//pclass:cow
	bounds []bounds
}

// NewBehavioral builds a behavioral TCAM over an expanded ruleset: each
// rule's run of entries is folded back into one row by ex.Lower. ex itself
// is not retained.
func NewBehavioral(ex *ruleset.Expanded) *Behavioral {
	lowered := ex.Lower()
	rows, bnds := make([]row, len(lowered)), make([]bounds, len(lowered))
	for i := range lowered {
		x := &lowered[i]
		rows[i], bnds[i] = packRow(x.Cover), packBounds(x)
	}
	return &Behavioral{rows: rows, bounds: bnds}
}

// Name identifies the engine in reports.
func (t *Behavioral) Name() string { return "tcam-behavioral" }

// NumRules returns the original rule count N.
func (t *Behavioral) NumRules() int { return len(t.rows) }

// NumEntries returns the stored row count, one per rule.
func (t *Behavioral) NumEntries() int { return len(t.rows) }

// MemoryBits returns the stored bits: the paper's 2·W per ternary row plus
// 64 bits of port bounds, (2·W + 64)·N.
func (t *Behavioral) MemoryBits() int {
	return MemoryBits(len(t.rows), packet.W) + boundsBits*len(t.rows)
}

// boundsBits is the storage of one row's four 16-bit port bounds.
const boundsBits = 64

// match reports whether row i accepts the key hi:lo: its branch-free
// two-word compare matches and its bounds admit the key's ports.
//
//pclass:hotpath
func (t *Behavioral) match(i int, hi, lo uint64) bool {
	return t.rows[i].matches(hi, lo) && t.bounds[i].admits(lo)
}

// Classify returns the highest-priority matching rule index, or -1.
// This is the priority-encoder output of a hardware TCAM: the first row
// that accepts the header's two words, straight from its fields. A row
// whose ternary word matches but whose bounds reject the ports does not
// stop the search.
//
//pclass:hotpath
func (t *Behavioral) Classify(h packet.Header) int {
	hi, lo := h.Words()
	rows := t.rows
	bnds := t.bounds[:len(rows)]
	for i := range rows {
		if rows[i].matches(hi, lo) && bnds[i].admits(lo) {
			return i
		}
	}
	return -1
}

// ClassifyBatch classifies hdrs into out (the core.BatchClassifier fast
// path): one pass over the batch with no per-packet interface dispatch or
// allocation. Safe for concurrent use — a search only reads the row table.
//
//pclass:hotpath
func (t *Behavioral) ClassifyBatch(hdrs []packet.Header, out []int) {
	for i := range hdrs {
		out[i] = t.Classify(hdrs[i])
	}
}

// MultiMatch returns all matching rule indices in priority order.
func (t *Behavioral) MultiMatch(h packet.Header) []int {
	hi, lo := h.Words()
	var out []int
	for i := range t.rows {
		if t.match(i, hi, lo) {
			out = append(out, i)
		}
	}
	return out
}

// MatchVector returns the raw per-rule match flags (the TCAM match lines
// before priority encoding): line i is asserted when row i accepts k.
func (t *Behavioral) MatchVector(k packet.Key) []bool {
	hi, lo := k.Words()
	out := make([]bool, len(t.rows))
	for i := range t.rows {
		out[i] = t.match(i, hi, lo)
	}
	return out
}

// ASICPowerModel is the paper's Section IV-C closed-form power model for a
// CMOS ASIC TCAM chip (18 Mbit capacity, 15 W max, 0.8 W static at 70 nm):
//
//	P(N) = 0.8 + (15 - 0.8) * (144 * N) / (18 * 2^20)   [watts]
//
// where N is the number of active 144-bit classification entries (the
// standard TCAM slot width holding a 104-bit 5-tuple). Dynamic power scales
// with the number of enabled entries because entries can be enabled per-row.
func ASICPowerModel(n int) float64 {
	const (
		staticW  = 0.8
		maxW     = 15.0
		slotBits = 144
		capBits  = 18 * 1 << 20
	)
	return staticW + (maxW-staticW)*float64(slotBits*n)/float64(capBits)
}

// MemoryBits returns the storage requirement of a TCAM holding ne entries of
// w ternary bits: 2 bits per ternary bit (data + mask), the paper's
// Section V-B accounting.
func MemoryBits(ne, w int) int { return 2 * w * ne }

// String summarises the engine.
func (t *Behavioral) String() string {
	return fmt.Sprintf("%s{rules=%d entries=%d}", t.Name(), t.NumRules(), t.NumEntries())
}
