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

// Behavioral is the reference TCAM: entries searched in parallel (semantics:
// all compared, lowest index wins), wildcards per bit. It operates on the
// ternary-expanded form of a ruleset, stored as packed word rows, and
// reports rule-level results.
type Behavioral struct {
	table
}

// NewBehavioral builds a behavioral TCAM over an expanded ruleset. It packs
// the entries into its own row table and copies ex's parent map as 4-byte
// rule indices; ex itself is not retained.
func NewBehavioral(ex *ruleset.Expanded) *Behavioral {
	return &Behavioral{table: newTable(ex)}
}

// Name identifies the engine in reports.
func (t *Behavioral) Name() string { return "tcam-behavioral" }

// NumRules returns the original rule count N.
func (t *Behavioral) NumRules() int { return t.numRules }

// NumEntries returns the stored entry count Ne.
func (t *Behavioral) NumEntries() int { return len(t.rows) }

// MemoryBits returns the stored bits of the paper's TCAM model, 2·W·Ne.
func (t *Behavioral) MemoryBits() int { return MemoryBits(len(t.rows), packet.W) }

// Classify returns the highest-priority matching rule index, or -1.
// This is the priority-encoder output of a hardware TCAM: the first row
// that matches the header's two words, straight from its fields.
//
//pclass:hotpath
func (t *Behavioral) Classify(h packet.Header) int {
	hi, lo := h.Words()
	rows := t.rows
	for i := range rows {
		if rows[i].matches(hi, lo) {
			return int(t.parent[i])
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
		if t.rows[i].matches(hi, lo) {
			out = t.appendRule(out, i)
		}
	}
	return out
}

// MatchVector returns the raw per-entry match flags (the TCAM match lines
// before priority encoding).
func (t *Behavioral) MatchVector(k packet.Key) []bool {
	hi, lo := k.Words()
	out := make([]bool, len(t.rows))
	for i := range t.rows {
		out[i] = t.rows[i].matches(hi, lo)
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
