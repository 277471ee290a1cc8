package partition

import (
	"fmt"
	"testing"

	"pktclass/internal/core"
	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
	"pktclass/internal/stridebv"
)

func buildStride4(rs *ruleset.RuleSet) (core.Engine, error) { return stridebv.New(rs.Expand(), 4) }

// applyStride is the per-part delta hook for StrideBV parts (the update
// package's dispatch, which imports this one, cannot be used here).
func applyStride(eng core.Engine, rules []int, entries []ruleset.Ternary) (core.Engine, error) {
	sbv, ok := eng.(*stridebv.Engine)
	if !ok {
		return nil, fmt.Errorf("part is %T, not StrideBV", eng)
	}
	return sbv.ApplyDeltas(rules, entries)
}

// requireStrided fails unless e runs the strided lookup over k = 4.
func requireStrided(t *testing.T, label string, e *Engine) {
	t.Helper()
	if e.stride != 4 || e.candWords < 1 {
		t.Fatalf("%s: stride %d, candWords %d: fell back to the generic lookup", label, e.stride, e.candWords)
	}
}

func requireAgrees(t *testing.T, label string, e *Engine, rs *ruleset.RuleSet, hdrs []packet.Header) {
	t.Helper()
	lin := core.NewLinear(rs)
	out := make([]int, len(hdrs))
	e.ClassifyBatch(hdrs, out)
	for i, h := range hdrs {
		want := lin.Classify(h)
		if out[i] != want || e.Classify(h) != want {
			t.Fatalf("%s: batch %d, single %d, linear %d for %s", label, out[i], e.Classify(h), want, h)
		}
	}
}

// A delta child keeps the strided lookup: its touched parts are StrideBV
// engines again, it shares the parent's entry-to-global tables (a
// single-entry delta leaves Parent alone), and parent → child → parent all
// answer like the linear reference.
func TestDeltaChildKeepsStridedPath(t *testing.T) {
	for ci, cfg := range []Config{
		{Splitter: PrefixSplit, Parts: 2, PrefixBits: 2},
		{Splitter: PrefixSplit},
		{Splitter: BandSplit, Parts: 3},
	} {
		label := fmt.Sprintf("cfg %d", ci)
		rs := ruleset.Generate(ruleset.GenConfig{N: 128, Profile: ruleset.PrefixOnly, Seed: int64(120 + ci), DefaultRule: true})
		trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 661, MatchFraction: 0.8, Seed: int64(130 + ci)})
		cfg.Build = buildStride4
		parent, err := New(rs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireStrided(t, label, parent)
		requireAgrees(t, label, parent, rs, trace)

		// Narrow one rule's DIP to a /32 inside its own bucket: a
		// steering-stable delta that changes answers.
		j := 0
		for j < rs.Len()-1 && (rs.Rules[j].DIP.Len < max(parent.PrefixBits(), 1) || rs.Rules[j].DIP.Len == 32) {
			j++
		}
		next := rs.Clone()
		//pclass:allow-mutate writing the test's private clone, not the shared input
		next.Rules[j].DIP = ruleset.Prefix{Value: rs.Rules[j].DIP.Value, Bits: 32, Len: 32}
		entries := next.Rules[j].TernaryEntries()
		child, err := parent.ApplyDeltas([]int{j}, entries, applyStride)
		if err != nil {
			t.Fatal(err)
		}
		requireStrided(t, label+" (child)", child)
		touched := parent.loc[j].part
		if child.parts[touched].sbv == parent.parts[touched].sbv {
			t.Fatalf("%s: touched part %d still walks the parent's memory", label, touched)
		}
		for pi := range child.parts {
			if &child.parts[pi].entryGlobal[0] != &parent.parts[pi].entryGlobal[0] {
				t.Fatalf("%s: part %d's entry table was copied, not shared", label, pi)
			}
		}
		requireAgrees(t, label+" (child)", child, next, trace)
		requireAgrees(t, label+" (parent again)", parent, rs, trace)
	}
}

// countingEngine counts the sub-engine calls, and the packets they carry,
// that reach a part: each such packet is one stride extraction and one
// summary AND inside a StrideBV sub-engine.
type countingEngine struct {
	core.Engine
	calls, pkts *int
}

func (c countingEngine) Classify(h packet.Header) int {
	*c.calls++
	*c.pkts++
	return c.Engine.Classify(h)
}

func (c countingEngine) ClassifyBatch(hdrs []packet.Header, out []int) {
	*c.calls++
	*c.pkts += len(hdrs)
	core.ClassifyBatchInto(c.Engine, hdrs, out)
}

// TestStridedLookupCounts logs the work counts behind the strided lookup on
// the part_large serving workload's ruleset (N = 32768 prefix-only; its
// 256-packet batches reach the engine as two 128-packet worker shares): the
// generic lookup over the former default geometry (two residual bands)
// against the strided one over the default geometry (one band).
func TestStridedLookupCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("builds N = 32768 twice")
	}
	rs := ruleset.Generate(ruleset.GenConfig{N: 32768, Profile: ruleset.PrefixOnly, Seed: 1, DefaultRule: true})
	hdrs := ruleset.FlowHeaders(rs, 16*128, 0.9, 3)
	var calls, pkts int
	counted := func(rs *ruleset.RuleSet) (core.Engine, error) {
		eng, err := buildStride4(rs)
		return countingEngine{eng, &calls, &pkts}, err
	}
	run := func(e *Engine) {
		out := make([]int, 128)
		for b := 0; b < len(hdrs); b += 128 {
			e.ClassifyBatch(hdrs[b:b+128], out)
		}
	}
	batches := float64(len(hdrs) / 256)

	generic, err := New(rs, Config{Build: counted, Parts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if generic.stride != 0 {
		t.Fatal("wrapped parts took the strided lookup")
	}
	run(generic)
	genericCalls, genericPkts := calls, pkts

	strided, err := New(rs, Config{Build: buildStride4})
	if err != nil {
		t.Fatal(err)
	}
	requireStrided(t, "default geometry", strided)
	// Put the counters behind every part's engine: the strided lookup walks
	// the parts' memories directly, so none of them may be called.
	calls, pkts = 0, 0
	var stages, sumWords int
	for pi := range strided.parts {
		p := &strided.parts[pi]
		p.eng = countingEngine{p.eng, &calls, &pkts}
		stages, sumWords = p.sbv.Stages(), max(sumWords, p.sbv.SummaryWords())
	}
	run(strided)
	if calls != 0 {
		t.Fatalf("strided lookup made %d sub-engine calls", calls)
	}
	if n := strided.NumParts(); n != 33 {
		t.Fatalf("default geometry has %d parts, want 16 DIP + 16 SIP buckets + 1 band = 33", n)
	}
	// leadStages in stridebv: the summaries the candidate AND reads.
	const leadStages = 4
	t.Logf("parts: %d (two bands) -> %d (one band)", generic.NumParts(), strided.NumParts())
	t.Logf("stride extractions per packet: %.2f -> 1", float64(genericPkts)/float64(len(hdrs)))
	t.Logf("sub-engine calls per 256-packet batch (two shares): %.1f -> %d", float64(genericCalls)/batches, calls)
	t.Logf("summary words ANDed per part visit: %d (every stage) -> %d (lead stages)", stages*sumWords, leadStages*sumWords)
}
