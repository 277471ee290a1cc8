// Package update simulates dynamic rule updates on both engines — the
// operational dimension behind the paper's reconfigurability remarks
// (Section IV-C: FPGA engines "can be easily reconfigured either statically
// or dynamically"; Section IV-B: TCAM entry writes shift 16 cycles through
// SRL16Es).
//
// Update cost model:
//   - StrideBV: reprogramming one entry writes one bit slice in each of
//     the ceil(W/k) stage memories. The writes ripple down the pipeline
//     like a packet, so an update occupies one issue slot and completes
//     after `stages` cycles (classification continues around it).
//   - SRL16E TCAM: an entry write shifts for 16 cycles; the written entry
//     is invalid while shifting, and the single write port serializes
//     updates.
//
// The package generates deterministic update workloads (rule replacement
// on a prefix-only ruleset, so the one-entry-per-rule invariant holds),
// applies them to live engines, and differentially verifies the result
// against an engine rebuilt from scratch. It names no engine family: the
// in-place cost paths take the write port they drive, and the
// copy-on-write path (ApplyDeltasToEngine) reaches each engine's own delta
// path through core.Updater.
package update

import (
	"errors"
	"fmt"
	"math/rand"

	"pktclass/internal/core"
	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
)

// Op replaces the rule at Index with Rule.
type Op struct {
	Index int
	Rule  ruleset.Rule
}

// GenerateOps draws a deterministic stream of rule replacements for a
// prefix-only ruleset (each replacement is itself prefix-only, preserving
// the 1:1 rule/entry mapping the in-place update path requires).
func GenerateOps(rs *ruleset.RuleSet, count int, seed int64) ([]Op, error) {
	if rs.ExpansionFactor() != 1 {
		return nil, fmt.Errorf("update: ruleset must be prefix-only (expansion factor %.2f)", rs.ExpansionFactor())
	}
	rng := rand.New(rand.NewSource(seed))
	donor := ruleset.Generate(ruleset.GenConfig{N: count, Profile: ruleset.PrefixOnly, Seed: seed + 1})
	ops := make([]Op, count)
	for i := range ops {
		ops[i] = Op{Index: rng.Intn(rs.Len()), Rule: donor.Rules[i]}
	}
	return ops, nil
}

// Cost is the cycle accounting of one engine's update stream.
type Cost struct {
	Ops int
	// LatencyCycles is the completion latency of a single update.
	LatencyCycles int
	// OccupancyCycles is the total issue-slot/port time the stream
	// consumed — the capacity stolen from classification.
	OccupancyCycles int64
}

// UpdatesPerSecond converts occupancy into a sustainable update rate at
// the given clock, assuming updates are the port's only traffic.
func (c Cost) UpdatesPerSecond(clockMHz float64) float64 {
	if c.OccupancyCycles == 0 {
		return 0
	}
	return clockMHz * 1e6 * float64(c.Ops) / float64(c.OccupancyCycles)
}

// ApplyToStrideBV applies the ops in place to a live StrideBV engine
// (stridebv.Engine) and returns the cost.
func ApplyToStrideBV(eng interface {
	UpdateEntry(j int, e ruleset.Ternary) error
	Stages() int
}, rs *ruleset.RuleSet, ops []Op) (Cost, error) {
	if err := applyInPlace(rs, ops, eng.UpdateEntry); err != nil {
		return Cost{}, err
	}
	return Cost{
		Ops:             len(ops),
		LatencyCycles:   eng.Stages(),
		OccupancyCycles: int64(len(ops)), // one issue slot each, pipelined
	}, nil
}

// ApplyToTCAM applies the ops to a live SRL16E TCAM (tcam.FPGA) and returns
// the cost. Write reports the cycles a row's shift-in occupies the single
// write port, which is also one update's latency.
func ApplyToTCAM(fp interface {
	Write(idx int, e ruleset.Ternary) (int, error)
	Advance(n int64)
}, rs *ruleset.RuleSet, ops []Op) (Cost, error) {
	c := Cost{Ops: len(ops)}
	err := applyInPlace(rs, ops, func(j int, e ruleset.Ternary) error {
		cycles, err := fp.Write(j, e)
		if err != nil {
			return err
		}
		c.LatencyCycles = cycles
		c.OccupancyCycles += int64(cycles)
		// Wait out the shift: the single write port serializes
		// consecutive updates.
		fp.Advance(int64(cycles))
		return nil
	})
	if err != nil {
		return Cost{}, err
	}
	return c, nil
}

// applyInPlace validates each op, applies it to rs and writes its one
// ternary entry through write.
func applyInPlace(rs *ruleset.RuleSet, ops []Op, write func(j int, e ruleset.Ternary) error) error {
	for _, op := range ops {
		if op.Index < 0 || op.Index >= rs.Len() {
			return fmt.Errorf("update: index %d out of range", op.Index)
		}
		entries := op.Rule.TernaryEntries()
		if len(entries) != 1 {
			return fmt.Errorf("update: replacement expands to %d entries, want 1", len(entries))
		}
		//pclass:allow-mutate in-place update path: the caller owns this ruleset
		rs.Rules[op.Index] = op.Rule
		if err := write(op.Index, entries[0]); err != nil {
			return err
		}
	}
	return nil
}

// ApplyToRuleSet returns a new ruleset with the ops applied, leaving the
// input untouched. This is the shadow-copy path the serving layer uses:
// the live engine keeps classifying against the old ruleset while a
// replacement engine is built from the returned clone. A no-op delta (an
// empty op list) returns the input itself, uncloned: callers compare the
// result against the input to detect that nothing changed and skip the
// engine rebuild entirely.
func ApplyToRuleSet(rs *ruleset.RuleSet, ops []Op) (*ruleset.RuleSet, error) {
	if len(ops) == 0 {
		return rs, nil
	}
	out := rs.Clone()
	for _, op := range ops {
		if op.Index < 0 || op.Index >= out.Len() {
			return nil, fmt.Errorf("update: index %d out of range [0,%d)", op.Index, out.Len())
		}
		//pclass:allow-mutate writing the private clone, not the shared input
		out.Rules[op.Index] = op.Rule
	}
	return out, nil
}

// ErrDeltaUnsupported reports that an engine has no incremental update
// primitive (or the delta is structural for it); errors.Is lets callers
// fall back to the shadow-rebuild path.
var ErrDeltaUnsupported = errors.New("update: no incremental delta path")

// Deltas lowers rule-replacement ops to the per-row form the engines'
// in-place update primitives consume: rules[i] is the row (== rule index
// under the 1:1 prefix-only mapping) that entries[i] replaces. It fails
// when a replacement expands to more than one ternary entry — a structural
// delta that must take the shadow-rebuild path instead.
func Deltas(ops []Op) (rules []int, entries []ruleset.Ternary, err error) {
	rules = make([]int, len(ops))
	entries = make([]ruleset.Ternary, len(ops))
	for i, op := range ops {
		te := op.Rule.TernaryEntries()
		if len(te) != 1 {
			return nil, nil, fmt.Errorf("update: op %d replacement expands to %d entries, want 1: %w", i, len(te), ErrDeltaUnsupported)
		}
		rules[i] = op.Index
		entries[i] = te[0]
	}
	return rules, entries, nil
}

// ApplyDeltasToEngine applies a lowered delta batch through the engine's
// own O(delta) update path (core.Updater), seen through any wrapper: the
// per-stride stage-memory write for StrideBV, the per-row (SRL16E shift-in
// on the FPGA model) write for the TCAMs, and the per-part routing of the
// partitioned engine. The receiver engine is never modified — the returned
// engine shares all untouched state with it and is safe to publish to
// concurrent readers with an atomic pointer store. Engines without a delta
// path, and structural deltas (capacity growth, expansion-factor change, a
// rule moving between partitions), report an error wrapping
// ErrDeltaUnsupported; the caller falls back to shadow rebuild.
func ApplyDeltasToEngine(eng core.Engine, rules []int, entries []ruleset.Ternary) (core.Engine, error) {
	u, ok := core.Unwrap(eng).(core.Updater)
	if !ok {
		return nil, fmt.Errorf("update: %s: %w", eng.Name(), ErrDeltaUnsupported)
	}
	out, err := u.ApplyDeltas(rules, entries)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrDeltaUnsupported, err)
	}
	return out, nil
}

// VerifyDeltasScoped differentially checks an incrementally updated engine
// against the linear reference of the post-update ruleset, scoping the
// sweep to what the delta could have broken instead of re-verifying the
// whole classifier: for every touched rule index it directs probe headers
// into both the old rule's match region (its stale state must be gone —
// the failure mode of a write that did not clear bits) and the new rule's
// region (the new condition must hit — the failure mode of a write that
// did not set them), then adds spot sampled headers across the rest of the
// ruleset as a canary against writes that strayed outside the touched
// rows. prev and next are the rulesets before and after the delta; rules
// holds the touched indices. It returns the first divergence, or nil.
func VerifyDeltasScoped(eng core.Engine, prev, next *ruleset.RuleSet, rules []int, spot int, seed int64) *core.Mismatch {
	rng := rand.New(rand.NewSource(seed))
	check := func(h packet.Header) *core.Mismatch {
		if got, want := eng.Classify(h), next.FirstMatch(h); got != want {
			return &core.Mismatch{Header: h, Want: want, Got: got, Engine: eng.Name(), Kind: "classify"}
		}
		return nil
	}
	// One directed probe per region: each probe pays an O(N) linear
	// FirstMatch, so the probe count bounds the sustainable update rate —
	// one stale-region and one new-region probe per touched rule covers
	// both single-rule failure modes, and the spot sweep below covers
	// cross-rule damage.
	for _, j := range rules {
		if m := check(ruleset.HeaderInRule(prev.Rules[j], rng)); m != nil {
			return m
		}
		if m := check(ruleset.HeaderInRule(next.Rules[j], rng)); m != nil {
			return m
		}
	}
	for i := 0; i < spot; i++ {
		h := ruleset.RandomHeader(rng)
		if rng.Float64() < 0.8 {
			h = ruleset.HeaderInRule(next.Rules[rng.Intn(next.Len())], rng)
		}
		if m := check(h); m != nil {
			return m
		}
	}
	return nil
}

// VerifyAfterUpdates checks a live engine against a reference engine
// rebuilt from the mutated ruleset, over a directed trace.
func VerifyAfterUpdates(rs *ruleset.RuleSet, classify func(packet.Header) int, seed int64) error {
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 500, MatchFraction: 0.8, Seed: seed})
	for _, h := range trace {
		if got, want := classify(h), rs.FirstMatch(h); got != want {
			return fmt.Errorf("update: divergence after updates on %s: got %d want %d", h, got, want)
		}
	}
	return nil
}
