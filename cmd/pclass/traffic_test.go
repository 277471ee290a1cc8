package main

import (
	"strings"
	"testing"

	"pktclass/internal/ruleset"
)

// Zipf traffic draws its packets from a population of -flows flows, so a
// population below one is an error that names the flag, never a panic. The
// directed trace has no population and ignores -flows.
func TestTrafficFlowsBound(t *testing.T) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 16, Profile: ruleset.PrefixOnly, Seed: 1, DefaultRule: true})
	for _, tc := range []struct {
		skew  string
		flows int
		ok    bool
	}{
		{"zipf:1.2", -1, false},
		{"zipf:1.2", 0, false},
		{"zipf:1.2", 1, true},
		{"uniform", -1, true},
	} {
		s, err := parseSkew(tc.skew)
		if err != nil {
			t.Fatal(err)
		}
		tr := traffic{count: 64, zipfS: s, flows: tc.flows, burst: 4, match: 0.9}
		hdrs, err := tr.generate(rs, 7)
		switch {
		case tc.ok && err != nil:
			t.Fatalf("-skew %s -flows %d: %v", tc.skew, tc.flows, err)
		case tc.ok && len(hdrs) != tr.count:
			t.Fatalf("-skew %s -flows %d: %d packets, want %d", tc.skew, tc.flows, len(hdrs), tr.count)
		case !tc.ok && (err == nil || !strings.Contains(err.Error(), "-flows")):
			t.Fatalf("-skew %s -flows %d: error %v, want one naming -flows", tc.skew, tc.flows, err)
		}
	}
}
