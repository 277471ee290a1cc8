package ruleset

import (
	"testing"
)

func TestFlowHeadersDirectedAndDeterministic(t *testing.T) {
	rs := Generate(GenConfig{N: 32, Profile: FirewallProfile, Seed: 83, DefaultRule: false})
	pop := FlowHeaders(rs, 400, 1, 84)
	if len(pop) != 400 {
		t.Fatalf("%d headers", len(pop))
	}
	for i, h := range pop {
		if rs.FirstMatch(h) == -1 {
			t.Fatalf("directed flow header %d matches nothing", i)
		}
	}
	again := FlowHeaders(rs, 400, 1, 84)
	for i := range pop {
		if pop[i] != again[i] {
			t.Fatalf("header %d not deterministic", i)
		}
	}
	// matchFraction 0 must not be forced into rules: with this seed, some
	// uniform headers miss the 32-rule set entirely.
	misses := 0
	for _, h := range FlowHeaders(rs, 400, 0, 85) {
		if rs.FirstMatch(h) == -1 {
			misses++
		}
	}
	if misses == 0 {
		t.Fatal("uniform population never missed the ruleset")
	}
}
