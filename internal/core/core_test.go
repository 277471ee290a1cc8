package core

import (
	"testing"

	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
)

func testSet(t testing.TB, n int, seed int64) (*ruleset.RuleSet, []packet.Header) {
	t.Helper()
	rs := ruleset.Generate(ruleset.GenConfig{N: n, Profile: ruleset.FirewallProfile, Seed: seed, DefaultRule: true})
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 200, MatchFraction: 0.8, Seed: seed + 1})
	return rs, trace
}

func TestLinearEngine(t *testing.T) {
	rs, trace := testSet(t, 32, 1)
	l := NewLinear(rs)
	if l.Name() == "" || l.NumRules() != 32 {
		t.Fatal("accessors wrong")
	}
	for _, h := range trace {
		if l.Classify(h) != rs.FirstMatch(h) {
			t.Fatal("linear engine diverges from ruleset")
		}
	}
}

func TestActionResolution(t *testing.T) {
	rs := ruleset.SampleRuleSet()
	if a := Action(rs, 2); a.Kind != ruleset.Drop {
		t.Fatalf("rule 2 action = %v", a)
	}
	if a := Action(rs, -1); a.Kind != ruleset.Drop {
		t.Fatal("miss should default-deny")
	}
	if a := Action(rs, 999); a.Kind != ruleset.Drop {
		t.Fatal("out of range should default-deny")
	}
	if a := Action(rs, 0); a.Kind != ruleset.Forward || a.Port != 1 {
		t.Fatalf("rule 0 action = %v", a)
	}
}

func TestVerifyDetectsBrokenEngine(t *testing.T) {
	rs, trace := testSet(t, 16, 3)
	ref := NewLinear(rs)
	broken := &offByOne{inner: NewLinear(rs)}
	ms := Verify(ref, broken, trace)
	if len(ms) == 0 {
		t.Fatal("verification passed a broken engine")
	}
	if ms[0].String() == "" {
		t.Fatal("empty mismatch string")
	}
}

// offByOne corrupts classification results to exercise the verifier.
type offByOne struct{ inner Engine }

func (o *offByOne) Name() string { return "off-by-one" }
func (o *offByOne) Classify(h packet.Header) int {
	return o.inner.Classify(h) + 1
}
func (o *offByOne) MultiMatch(h packet.Header) []int { return o.inner.MultiMatch(h) }
func (o *offByOne) NumRules() int                    { return o.inner.NumRules() }

func TestVerifyClassify(t *testing.T) {
	rs, trace := testSet(t, 32, 6)
	ref := NewLinear(rs)
	if m := VerifyClassify(ref, NewLinear(rs), trace); m != nil {
		t.Fatalf("equivalent engines diverged: %s", m)
	}
	m := VerifyClassify(ref, &offByOne{inner: NewLinear(rs)}, trace)
	if m == nil {
		t.Fatal("classify divergence not detected")
	}
	if m.Kind != "classify" || m.Got != m.Want+1 {
		t.Fatalf("mismatch = %+v", m)
	}
	// A multimatch-only bug is invisible to the classify-only verifier —
	// that asymmetry is the point of the cheaper check.
	if m := VerifyClassify(ref, &dropLastMatch{inner: NewLinear(rs)}, trace); m != nil {
		t.Fatalf("classify-only verifier flagged a multimatch bug: %s", m)
	}
	if m := VerifyClassify(ref, &offByOne{inner: NewLinear(rs)}, nil); m != nil {
		t.Fatal("empty trace produced a mismatch")
	}
}

func TestVerifyDetectsMultiMatchDivergence(t *testing.T) {
	rs, trace := testSet(t, 16, 4)
	ref := NewLinear(rs)
	broken := &dropLastMatch{inner: NewLinear(rs)}
	ms := Verify(ref, broken, trace)
	if len(ms) == 0 {
		t.Fatal("multimatch divergence not detected")
	}
	if ms[0].Kind != "multimatch" {
		t.Fatalf("mismatch kind = %q", ms[0].Kind)
	}
}

type dropLastMatch struct{ inner Engine }

func (o *dropLastMatch) Name() string                 { return "drop-last" }
func (o *dropLastMatch) Classify(h packet.Header) int { return o.inner.Classify(h) }
func (o *dropLastMatch) NumRules() int                { return o.inner.NumRules() }
func (o *dropLastMatch) MultiMatch(h packet.Header) []int {
	m := o.inner.MultiMatch(h)
	if len(m) > 0 {
		return m[:len(m)-1]
	}
	return m
}
