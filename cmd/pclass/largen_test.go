package main

import (
	"testing"

	"pktclass/internal/core"
	"pktclass/internal/ruleset"
)

// Past the paper's 2048-rule ceiling the engines are built the way
// `pclass bench` builds them and checked against the linear reference: the
// -verify-diff check on both lookup paths (prefix-only rules, k = 4, 256
// headers), then the cache-fronted Zipf series the sweep times, twice so
// the second pass answers from the cache.
func TestLargeNDifferential(t *testing.T) {
	const n, seed = 16384, 1
	rs := ruleset.Generate(ruleset.GenConfig{N: n, Profile: ruleset.PrefixOnly, Seed: seed, DefaultRule: true})
	tr := traffic{count: 512, zipfS: 1.2, flows: 256, burst: 4, match: 0.9}
	trace, err := tr.generate(rs, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	lin := core.NewLinear(rs)
	want := make([]int, len(trace))
	core.ClassifyBatchInto(lin, trace, want)
	for _, c := range []struct {
		name string
		cfg  benchConfig
	}{
		{"part-stridebv", benchConfig{}},
		{"part-stridebv", benchConfig{splitter: "band", partitions: 4}},
		{"stridebv", benchConfig{}},
	} {
		cfg := c.cfg
		cfg.traffic, cfg.profile, cfg.seed, cfg.verify, cfg.cache = tr, ruleset.PrefixOnly, seed, 256, 64
		eng, cache, err := benchEngine(rs, c.name, 4, cfg)
		if err != nil {
			t.Fatalf("%s splitter=%q N=%d: %v", c.name, c.cfg.splitter, n, err)
		}
		got := make([]int, len(trace))
		for pass := 0; pass < 2; pass++ {
			core.ClassifyBatchInto(eng, trace, got)
			for i := range trace {
				if got[i] != want[i] {
					t.Fatalf("%s pass %d: cached batch gives %d, linear %d for %s", eng.Name(), pass, got[i], want[i], trace[i])
				}
			}
		}
		if st := cache.Stats(); st.Hits == 0 {
			t.Fatalf("%s: %+v, want cache hits on the second pass", eng.Name(), st)
		}
	}
}
