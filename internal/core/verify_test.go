package core_test

import (
	"testing"

	"pktclass/internal/core"
	"pktclass/internal/ruleset"
	"pktclass/internal/stridebv"
	"pktclass/internal/tcam"
)

func TestVerifyAllEnginesAgree(t *testing.T) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 48, Profile: ruleset.FirewallProfile, Seed: 2, DefaultRule: true})
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 200, MatchFraction: 0.8, Seed: 3})
	ex := rs.Expand()
	ref := core.NewLinear(rs)

	engines := []core.Engine{tcam.NewBehavioral(ex)}
	for _, k := range []int{1, 3, 4} {
		e, err := stridebv.New(ex, k)
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, e)
	}
	re, err := stridebv.NewRange(rs, 4)
	if err != nil {
		t.Fatal(err)
	}
	engines = append(engines, re)

	for _, eng := range engines {
		if ms := core.Verify(ref, eng, trace); len(ms) != 0 {
			t.Fatalf("%s: %d mismatches, first: %s", eng.Name(), len(ms), ms[0])
		}
	}
}
