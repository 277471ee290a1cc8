// Package core defines the engine contract the paper's comparison is built
// on — the required Engine interface and the optional capabilities an
// engine declares by implementing BatchClassifier, TracedClassifier,
// Updater or Footprint — and the linear-search reference classifier every
// engine is verified against.
package core

import (
	"fmt"

	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
)

// Engine is a packet classifier. Implementations in this repository:
// the linear reference (this package), tcam.Behavioral, tcam.FPGA,
// stridebv.Engine (any stride, FSBV at k=1), stridebv.RangeEngine,
// dtree.Tree and partition.Engine. Callers reach an engine's further
// capabilities by asserting the optional interfaces below, never by
// switching over concrete engine types.
type Engine interface {
	// Name identifies the engine for reports.
	Name() string
	// Classify returns the index of the highest-priority matching rule,
	// or -1 when no rule matches.
	Classify(h packet.Header) int
	// MultiMatch returns every matching rule index in priority order
	// (IDS-style reporting).
	MultiMatch(h packet.Header) []int
	// NumRules returns the rule count N of the loaded classifier.
	NumRules() int
}

// Updater is implemented by engines with an O(delta) update path.
// ApplyDeltas applies single-entry rule replacements — rules[i] names the
// row entries[i] replaces, and later deltas win when indices repeat — and
// returns the updated engine without modifying the receiver, which keeps
// serving concurrent readers until the caller publishes the result. A
// delta the engine cannot apply in place (a structural one) returns a nil
// Engine and an error.
type Updater interface {
	ApplyDeltas(rules []int, entries []ruleset.Ternary) (Engine, error)
}

// Footprint is implemented by engines with a hardware memory model.
// MemoryBits is the paper's stored-bit count (Section V-B): ⌈W/k⌉·2^k·Ne
// for StrideBV, 2·W·Ne for the SRL16E TCAM, (2·W + 64)·N for the extended
// behavioural TCAM.
type Footprint interface {
	MemoryBits() int
}

// MemoryBits returns the stored bits of eng's memory model, seen through
// any wrapper, or 0 for an engine without one.
func MemoryBits(eng Engine) int {
	if f, ok := Unwrap(eng).(Footprint); ok {
		return f.MemoryBits()
	}
	return 0
}

// Linear is the brute-force reference engine: a priority-ordered scan of
// the original (unexpanded) ruleset. It is the semantic ground truth.
type Linear struct {
	rs *ruleset.RuleSet
}

// NewLinear wraps a ruleset in the reference engine.
func NewLinear(rs *ruleset.RuleSet) *Linear { return &Linear{rs: rs} }

// Name identifies the engine.
func (l *Linear) Name() string { return "linear-reference" }

// Classify returns the first matching rule index, or -1.
func (l *Linear) Classify(h packet.Header) int { return l.rs.FirstMatch(h) }

// ClassifyBatch classifies hdrs into out (the BatchClassifier fast path).
//
//pclass:hotpath
func (l *Linear) ClassifyBatch(hdrs []packet.Header, out []int) {
	for i, h := range hdrs {
		out[i] = l.rs.FirstMatch(h)
	}
}

// MultiMatch returns all matching rule indices in priority order.
func (l *Linear) MultiMatch(h packet.Header) []int { return l.rs.AllMatches(h) }

// NumRules returns N.
func (l *Linear) NumRules() int { return l.rs.Len() }

// Action resolves a classification result to the rule's action. A miss
// (rule < 0) maps to the conventional default-deny.
func Action(rs *ruleset.RuleSet, rule int) ruleset.Action {
	if rule < 0 || rule >= rs.Len() {
		return ruleset.Action{Kind: ruleset.Drop}
	}
	return rs.Rules[rule].Action
}

// Mismatch describes one differential-verification failure.
type Mismatch struct {
	Header packet.Header
	Want   int
	Got    int
	Engine string
	Kind   string // "classify" or "multimatch"
}

func (m Mismatch) String() string {
	return fmt.Sprintf("%s: %s on %s: got %d want %d", m.Engine, m.Kind, m.Header, m.Got, m.Want)
}

// VerifyClassify differentially tests only the Classify path against the
// reference, stopping at the first divergence. It is the cheap check the
// serving layer runs on every candidate engine before an atomic hot-swap,
// where full MultiMatch agreement (Verify) would dominate swap latency.
func VerifyClassify(ref Engine, eng Engine, trace []packet.Header) *Mismatch {
	for _, h := range trace {
		want := ref.Classify(h)
		if got := eng.Classify(h); got != want {
			return &Mismatch{Header: h, Want: want, Got: got, Engine: eng.Name(), Kind: "classify"}
		}
	}
	return nil
}

// Verify differentially tests an engine against the reference on a trace.
// It returns all mismatches found (nil means the engine is equivalent on
// this trace). MultiMatch agreement is checked element-wise.
func Verify(ref Engine, eng Engine, trace []packet.Header) []Mismatch {
	var out []Mismatch
	for _, h := range trace {
		want := ref.Classify(h)
		if got := eng.Classify(h); got != want {
			out = append(out, Mismatch{Header: h, Want: want, Got: got, Engine: eng.Name(), Kind: "classify"})
			continue
		}
		wm := ref.MultiMatch(h)
		gm := eng.MultiMatch(h)
		if len(wm) != len(gm) {
			out = append(out, Mismatch{Header: h, Want: len(wm), Got: len(gm), Engine: eng.Name(), Kind: "multimatch"})
			continue
		}
		for i := range wm {
			if wm[i] != gm[i] {
				out = append(out, Mismatch{Header: h, Want: wm[i], Got: gm[i], Engine: eng.Name(), Kind: "multimatch"})
				break
			}
		}
	}
	return out
}
