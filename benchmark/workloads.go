package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
	"pktclass/internal/update"
)

const (
	workers = 2  // serve workers, and the flow caches the capacity is split over
	clients = 2  // closed-loop client goroutines of the end-to-end window
	stride  = 4  // StrideBV k, the paper's operating point
	opsSwap = 32 // rule replacements per ApplyOps on churn
	// genSwaps is how many ApplyOps worth of replacements are generated; the
	// updater starts over when it has applied them all.
	genSwaps = 1024
)

// spec is one workload: a serving stack and the traffic it is driven with.
// The names are fixed; later issues refer to them.
type spec struct {
	name, why string
	engine    string // stridebv | tcam | part-stridebv
	// firewall selects the firewall rule profile, expanded to exactly
	// entriesPerRule16/16 ternary entries per rule; otherwise prefix-only
	// (one entry per rule, the profile incremental updates need).
	firewall bool
	rules    int
	cache    int // serve.Config.CacheEntries, 0 = cache off
	batch    int
	flows    int
	packets  int
	zipfS    float64
	burst    float64
	churn    bool // incremental service plus an open-loop updater
}

// entriesPerRule16 fixes the firewall rulesets' expansion at 29/16 = 1.8125
// entries per rule (Ne = 3712 = 58 words at N = 2048, the profile's natural
// mean). Both engines cost the same for any ruleset of a given Ne — the
// paper's thesis — so pinning Ne makes throughput and memory a property of
// the code, not of which seed drew more port ranges.
const entriesPerRule16 = 29

var workloads = []spec{
	{
		name: "engine_miss", engine: "stridebv", firewall: true, rules: 2048, batch: 256,
		flows: 262144, packets: 1 << 20, burst: 1,
		why: "cache off, uniform flows: every packet reaches the StrideBV kernel, so stridebv and packet stride extraction do the work and flowcache none",
	},
	{
		name: "cache_hot", engine: "stridebv", firewall: true, rules: 2048, cache: 65536, batch: 32,
		flows: 8192, packets: 1 << 19, zipfS: 1.1, burst: 4,
		why: "flows fit the cache and batches are small: serve scatter/queue/gather and the flowcache hit path dominate, the engine does almost nothing",
	},
	{
		name: "cache_pressure", engine: "stridebv", firewall: true, rules: 2048, cache: 16384, batch: 256,
		flows: 262144, packets: 1 << 20, zipfS: 1.0, burst: 4,
		why: "working set 16x the cache (hit ratio about 0.7): probe, insert, CLOCK eviction and the miss path all run",
	},
	{
		name: "churn", engine: "stridebv", rules: 2048, cache: 16384, batch: 256,
		flows: 262144, packets: 1 << 20, zipfS: 1.0, burst: 4, churn: true,
		why: "cache_pressure traffic beside 3200 incremental rule ops/s: COW deltas, scoped verify and generation retirement run next to reads",
	},
	{
		name: "tcam_miss", engine: "tcam", firewall: true, rules: 512, batch: 256,
		flows: 262144, packets: 1 << 18, burst: 1,
		why: "cache off over the behavioural TCAM: the paper's other engine does all the work, a StrideBV change must leave it flat",
	},
	{
		name: "part_large", engine: "part-stridebv", rules: 32768, batch: 256,
		flows: 262144, packets: 1 << 20, burst: 1,
		why: "N=32768, past the flat engines' ceiling: partition fan-out/merge and its pool do the work and build time shows in setup_s",
	},
}

// toy shrinks a workload to test scale, keeping flows-to-cache ratios.
func (sp spec) toy() spec {
	sp.rules = 64
	if sp.engine == "part-stridebv" {
		sp.rules = 256 // the prefix splitter still makes several buckets
	}
	sp.packets = 4096
	sp.flows /= 128
	sp.cache /= 64
	return sp
}

func findWorkload(name string) (spec, bool) {
	for _, sp := range workloads {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// inputs is everything a run feeds the program, all derived from the seed.
type inputs struct {
	rs    *ruleset.RuleSet
	text  string          // rs in the text format: what every cold start parses
	probe []packet.Header // the first batch each cold start answers
	trace []packet.Header
	ops   []update.Op // churn only
}

// genRules draws the ruleset. Traffic is generated separately, after the
// set-up phase, so heap_mb is read before the trace exists.
func (sp spec) genRules(seed int64) *inputs {
	var rs *ruleset.RuleSet
	if sp.firewall {
		rs = firewallRules(sp.rules, sp.rules*entriesPerRule16/16, seed)
	} else {
		rs = ruleset.Generate(ruleset.GenConfig{N: sp.rules, Profile: ruleset.PrefixOnly, Seed: seed, DefaultRule: true})
	}
	return &inputs{
		rs:    rs,
		text:  rs.MarshalText(),
		probe: ruleset.FlowHeaders(rs, sp.batch, 0.9, seed+3),
	}
}

// firewallRules draws n firewall-profile rules and then re-draws the
// destination port range of a few of them so the set expands to exactly
// entries ternary entries. The range [1, 2^j-1] splits into exactly j
// prefixes, which lets one rule absorb up to 15 entries of the difference.
func firewallRules(n, entries int, seed int64) *ruleset.RuleSet {
	rules := ruleset.Generate(ruleset.GenConfig{N: n, Profile: ruleset.FirewallProfile, Seed: seed, DefaultRule: true}).Rules
	total := 0
	for _, r := range rules {
		total += r.ExpansionFactor()
	}
	rng := rand.New(rand.NewSource(seed + 4))
	for total != entries {
		r := &rules[rng.Intn(n-1)] // never the trailing default rule
		if !r.SP.Wildcard() {
			continue
		}
		have := len(r.DP.Prefixes())
		want := have + entries - total
		if want < 1 {
			want = 1
		}
		if want > 16 {
			want = 16
		}
		r.DP = ruleset.PortRange{Lo: 1, Hi: uint16(1<<uint(want) - 1)}
		total += want - have
	}
	return ruleset.New(rules)
}

// genTraffic draws the flow population, the trace over it and, on churn,
// the update ops.
func (sp spec) genTraffic(in *inputs, seed int64) error {
	flows := ruleset.FlowHeaders(in.rs, sp.flows, 0.9, seed+1)
	trace, err := packet.ZipfTrace(flows, packet.ZipfTraceConfig{
		Count: sp.packets, S: sp.zipfS, MeanBurst: sp.burst, Seed: seed + 2,
	})
	if err != nil {
		return err
	}
	in.trace = trace
	if sp.churn {
		if in.ops, err = update.GenerateOps(in.rs, genSwaps*opsSwap, seed+5); err != nil {
			return err
		}
	}
	return nil
}

// digest fingerprints the generated inputs: same seed, same digest.
func (in *inputs) digest() string {
	h := sha256.New()
	h.Write([]byte(in.text))
	if err := packet.WriteBinaryTrace(h, in.trace); err != nil {
		panic("benchmark: trace digest: " + err.Error()) // a hash.Hash never fails a Write
	}
	for _, op := range in.ops {
		fmt.Fprintf(h, "%d %s\n", op.Index, op.Rule)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
