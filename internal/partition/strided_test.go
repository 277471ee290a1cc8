package partition

import (
	"fmt"
	"testing"

	"pktclass/internal/core"
	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
	"pktclass/internal/stridebv"
	"pktclass/internal/tcam"
)

func buildStride4(rs *ruleset.RuleSet) (core.Engine, error) { return stridebv.New(rs.Expand(), 4) }

func buildStride3(rs *ruleset.RuleSet) (core.Engine, error) { return stridebv.New(rs.Expand(), 3) }

func buildTCAM(rs *ruleset.RuleSet) (core.Engine, error) { return tcam.NewBehavioral(rs.Expand()), nil }

// alternate returns a Build hook for one engine that builds its parts with
// a and b in turn, starting with a.
func alternate(a, b func(*ruleset.RuleSet) (core.Engine, error)) func(*ruleset.RuleSet) (core.Engine, error) {
	n := 0
	return func(rs *ruleset.RuleSet) (core.Engine, error) {
		n++
		if n%2 == 1 {
			return a(rs)
		}
		return b(rs)
	}
}

// requireStrided fails unless e walks every bare StrideBV part, each at
// stride k, and answers every other part through Classify.
func requireStrided(t *testing.T, label string, e *Engine, k int) {
	t.Helper()
	walked := 0
	for pi := range e.parts {
		p := &e.parts[pi]
		bare, _ := p.eng.(*stridebv.Engine)
		if p.sbv != bare || (bare != nil && bare.Stride() != k) {
			t.Fatalf("%s: part %d (%s) walked as %v, want its bare StrideBV memory at k = %d", label, pi, p.eng.Name(), p.sbv, k)
		}
		if bare != nil {
			walked++
		}
	}
	if walked == 0 || e.candWords < 1 {
		t.Fatalf("%s: %d parts walked, candWords %d", label, walked, e.candWords)
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
// answer like the linear reference. Beside TCAM parts the child still walks
// its StrideBV parts, and its TCAM parts answer through Classify.
func TestDeltaChildKeepsStridedPath(t *testing.T) {
	for ci, c := range []struct {
		cfg   Config
		build func(*ruleset.RuleSet) (core.Engine, error)
	}{
		{Config{Splitter: PrefixSplit, Parts: 2, PrefixBits: 2}, buildStride4},
		{Config{Splitter: PrefixSplit}, buildStride4},
		{Config{Splitter: BandSplit, Parts: 3}, buildStride4},
		{Config{Splitter: PrefixSplit, Parts: 2, PrefixBits: 2}, alternate(buildTCAM, buildStride4)},
	} {
		label := fmt.Sprintf("cfg %d", ci)
		rs := ruleset.Generate(ruleset.GenConfig{N: 128, Profile: ruleset.PrefixOnly, Seed: int64(120 + ci), DefaultRule: true})
		trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 661, MatchFraction: 0.8, Seed: int64(130 + ci)})
		cfg := c.cfg
		cfg.Build = c.build
		parent, err := New(rs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireStrided(t, label, parent, 4)
		requireAgrees(t, label, parent, rs, trace)

		// Narrow the DIP of one rule in a StrideBV part to a /32 inside its
		// own bucket: a steering-stable delta that changes answers.
		j := 0
		for j < rs.Len()-1 && (rs.Rules[j].DIP.Len < max(parent.prefixBits, 1) || rs.Rules[j].DIP.Len == 32 ||
			parent.parts[parent.loc[j].part].sbv == nil) {
			j++
		}
		next := rs.Clone()
		//pclass:allow-mutate writing the test's private clone, not the shared input
		next.Rules[j].DIP = ruleset.Prefix{Value: rs.Rules[j].DIP.Value, Bits: 32, Len: 32}
		entries := next.Rules[j].TernaryEntries()
		out, err := parent.ApplyDeltas([]int{j}, entries)
		if err != nil {
			t.Fatal(err)
		}
		child := out.(*Engine)
		requireStrided(t, label+" (child)", child, 4)
		touched := parent.loc[j].part
		if child.parts[touched].sbv == parent.parts[touched].sbv {
			t.Fatalf("%s: touched part %d still walks the parent's memory", label, touched)
		}
		var n counts
		others := 0
		for pi := range child.parts {
			p := &child.parts[pi]
			if p.sbv == nil {
				// Count the calls reaching the child's other parts; the
				// parent's stay unwrapped.
				p.eng = countingEngine{p.eng, &n}
				others++
			} else if &p.entryGlobal[0] != &parent.parts[pi].entryGlobal[0] {
				t.Fatalf("%s: part %d's entry table was copied, not shared", label, pi)
			}
		}
		requireAgrees(t, label+" (child)", child, next, trace)
		if others > 0 && (n.classify == 0 || n.batch != 0) {
			t.Fatalf("%s: child's %d TCAM parts got %d Classify and %d ClassifyBatch calls, want some and none",
				label, others, n.classify, n.batch)
		}
		requireAgrees(t, label+" (parent again)", parent, rs, trace)
	}
}

// counts tallies the sub-engine calls that reach the parts of one engine.
type counts struct{ classify, batch int }

// countingEngine counts the sub-engine calls that reach a part. Inside a
// StrideBV sub-engine each Classify is one stride extraction and one
// summary AND.
type countingEngine struct {
	core.Engine
	n *counts
}

func (c countingEngine) Classify(h packet.Header) int {
	c.n.classify++
	return c.Engine.Classify(h)
}

func (c countingEngine) ClassifyBatch(hdrs []packet.Header, out []int) {
	c.n.batch++
	core.ClassifyBatchInto(c.Engine, hdrs, out)
}

// TestStridedLookupCounts logs the work counts behind the partitioned
// lookup on the part_large serving workload's ruleset (N = 32768
// prefix-only; its 256-packet batches reach the engine as two 128-packet
// worker shares), over the default geometry built three ways: wrapped
// StrideBV parts, which answer through their own Classify, one call (and
// one stride extraction) per part a packet visits and does not skip; bare
// k = 4 parts, walked over one stride extraction per packet; and bare parts
// alternating k = 3 and k = 4, walked over at most three (one up front at
// the last k walked, one more per change of k).
func TestStridedLookupCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("builds N = 32768 three times")
	}
	rs := ruleset.Generate(ruleset.GenConfig{N: 32768, Profile: ruleset.PrefixOnly, Seed: 1, DefaultRule: true})
	hdrs := ruleset.FlowHeaders(rs, 16*128, 0.9, 3)
	run := func(e *Engine) {
		out := make([]int, 128)
		for b := 0; b < len(hdrs); b += 128 {
			e.ClassifyBatch(hdrs[b:b+128], out)
		}
	}
	batches := float64(len(hdrs) / 256)

	var n counts
	wrapped, err := New(rs, Config{Build: func(rs *ruleset.RuleSet) (core.Engine, error) {
		eng, err := buildStride4(rs)
		return countingEngine{eng, &n}, err
	}})
	if err != nil {
		t.Fatal(err)
	}
	run(wrapped)
	// Each packet visits its DIP part, its SIP part and the band; the
	// first part visited is never skipped.
	if n.batch != 0 || n.classify < len(hdrs) || n.classify > (2+len(wrapped.always))*len(hdrs) {
		t.Fatalf("wrapped parts got %d Classify and %d ClassifyBatch calls for %d packets", n.classify, n.batch, len(hdrs))
	}
	wrappedCalls := n.classify

	var sumWords int
	for _, c := range []struct {
		label string
		build func(*ruleset.RuleSet) (core.Engine, error)
	}{
		{"bare k = 4", buildStride4},
		{"mixed k = 3, 4", alternate(buildStride3, buildStride4)},
	} {
		e, err := New(rs, Config{Build: c.build})
		if err != nil {
			t.Fatal(err)
		}
		if n := e.NumParts(); n != 33 {
			t.Fatalf("%s: default geometry has %d parts, want 16 DIP + 16 SIP buckets + 1 band = 33", c.label, n)
		}
		// Put the counters behind every part's engine: the lookup walks
		// the parts' memories directly, so none of them may be called.
		n = counts{}
		for pi := range e.parts {
			p := &e.parts[pi]
			if p.sbv == nil {
				t.Fatalf("%s: part %d is not walked", c.label, pi)
			}
			p.eng = countingEngine{p.eng, &n}
			sumWords = max(sumWords, p.sbv.SummaryWords())
		}
		run(e)
		if n != (counts{}) {
			t.Fatalf("%s: walked parts got %d Classify and %d ClassifyBatch calls", c.label, n.classify, n.batch)
		}
	}
	// The lead summary groups stridebv keys by pairs of lead strides at
	// k = 3 and 4: the summary rows the candidate AND reads.
	const leadGroups = 2
	t.Logf("sub-engine calls per 256-packet batch (two shares): wrapped parts %.1f Classify, 0 ClassifyBatch; bare k = 4 and mixed k: 0",
		float64(wrappedCalls)/batches)
	t.Logf("stride extractions per packet: wrapped parts %.2f, bare k = 4 1, mixed k at most 3", float64(wrappedCalls)/float64(len(hdrs)))
	t.Logf("summary words ANDed per part walk: %d (lead stride pairs)", leadGroups*sumWords)
}
