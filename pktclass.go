// Package pktclass is a library for ruleset-feature-independent packet
// classification, reproducing "A Comparison of Ruleset Feature Independent
// Packet Classification Engines on FPGA" (Sanny, Ganegedara, Prasanna,
// 2013).
//
// It provides bit-exact implementations of the two engines the paper
// studies — TCAM (brute-force ternary search, including the SRL16E-based
// FPGA construction) and StrideBV (the stride-decomposed bit-vector
// pipeline, with FSBV as its k=1 case) — plus the FPGA resource, timing
// (placement-driven) and power models that regenerate the paper's
// evaluation: throughput, memory, resource and power efficiency across
// ruleset sizes 32..2048.
//
// # Quick start
//
//	rs, _ := pktclass.ParseRuleSet(rulesText)
//	eng, _ := pktclass.NewStrideBV(rs, 4)
//	rule := eng.Classify(pktclass.Header{SIP: ..., DP: 80, Proto: 6})
//	action := pktclass.ActionOf(rs, rule)
//
// See examples/ for complete programs and cmd/experiments for the full
// paper reproduction.
package pktclass

import (
	"io"

	"pktclass/internal/core"
	"pktclass/internal/experiments"
	"pktclass/internal/floorplan"
	"pktclass/internal/flowcache"
	"pktclass/internal/fpga"
	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
	"pktclass/internal/stridebv"
	"pktclass/internal/tcam"
)

// Core data types.
type (
	// Header is the 5-tuple packet header every engine classifies.
	Header = packet.Header
	// Rule is one 5-field classification rule.
	Rule = ruleset.Rule
	// RuleSet is a priority-ordered classifier.
	RuleSet = ruleset.RuleSet
	// Action is a rule's forwarding decision.
	Action = ruleset.Action
	// Engine is the classifier abstraction shared by all implementations.
	Engine = core.Engine
	// BatchClassifier is implemented by engines with a native
	// zero-allocation batched classification path (StrideBV, RangeStrideBV,
	// TCAM and the linear reference all do).
	BatchClassifier = core.BatchClassifier
	// StrideBV is the bit-vector pipeline engine (FSBV at stride 1).
	StrideBV = stridebv.Engine
	// TCAM is the behavioral ternary-CAM engine.
	TCAM = tcam.Behavioral
	// TCAMFPGA is the cycle-accounted SRL16E TCAM, a single-goroutine
	// cycle model.
	TCAMFPGA = tcam.FPGA
	// Device models the target FPGA.
	Device = fpga.Device
	// Report is a full hardware evaluation of one configuration.
	Report = fpga.Report
	// Comparison is the head-to-head result of both engines on one ruleset.
	Comparison = experiments.Comparison
	// FlowCache is the generation-tagged exact-match flow cache.
	FlowCache = flowcache.Cache
	// FlowCacheConfig sizes a FlowCache.
	FlowCacheConfig = flowcache.Config
	// FlowCacheStats is a FlowCache counter snapshot.
	FlowCacheStats = flowcache.Stats
	// Cached is an engine fronted by a FlowCache under one generation.
	Cached = core.Cached
	// ZipfTraceConfig parameterizes skewed flow-burst trace generation.
	ZipfTraceConfig = packet.ZipfTraceConfig
)

// Rule/ruleset construction.

// ParseRuleSet reads a ruleset in the ClassBench-style text format.
func ParseRuleSet(r io.Reader) (*RuleSet, error) { return ruleset.Parse(r) }

// ParseRuleSetString parses a ruleset from a string.
func ParseRuleSetString(s string) (*RuleSet, error) { return ruleset.ParseString(s) }

// GenerateRuleSet produces a deterministic synthetic ruleset with n rules.
// Profile strings: "firewall" (default), "feature-free", "prefix-only".
func GenerateRuleSet(n int, profile string, seed int64) *RuleSet {
	p, err := ruleset.ParseProfile(profile)
	if err != nil {
		p = ruleset.FirewallProfile
	}
	return ruleset.Generate(ruleset.GenConfig{N: n, Profile: p, Seed: seed, DefaultRule: true})
}

// GenerateTrace draws headers against a ruleset (matchFraction of them
// directed into rule match regions).
func GenerateTrace(rs *RuleSet, count int, matchFraction float64, seed int64) []Header {
	return ruleset.GenerateTrace(rs, ruleset.TraceConfig{
		Count: count, MatchFraction: matchFraction, Locality: 0.3, Seed: seed,
	})
}

// SampleRuleSet returns the paper's Table I example classifier.
func SampleRuleSet() *RuleSet { return ruleset.SampleRuleSet() }

// Engine construction.

// NewStrideBV builds a StrideBV engine with the given stride (the paper
// uses 3 and 4) over the ruleset's ternary expansion.
func NewStrideBV(rs *RuleSet, stride int) (*StrideBV, error) {
	return stridebv.New(rs.Expand(), stride)
}

// NewFSBV builds the per-bit Field-Split Bit Vector engine (stride 1).
func NewFSBV(rs *RuleSet) (*StrideBV, error) { return stridebv.NewFSBV(rs.Expand()) }

// NewTCAM builds the behavioral TCAM engine, an extended TCAM with one row
// and two port-range comparators per rule.
func NewTCAM(rs *RuleSet) *TCAM { return tcam.NewBehavioral(rs.Expand()) }

// NewTCAMFPGA builds the cycle-accounted SRL16E TCAM (16-cycle entry
// writes, single-cycle searches).
func NewTCAMFPGA(rs *RuleSet) *TCAMFPGA { return tcam.NewFPGA(rs.Expand()) }

// NewLinear builds the brute-force linear reference engine.
func NewLinear(rs *RuleSet) Engine { return core.NewLinear(rs) }

// NewRangeStrideBV builds the StrideBV variant with dedicated port-range
// modules: arbitrary ranges cost no ternary expansion (vector width == N).
func NewRangeStrideBV(rs *RuleSet, stride int) (*stridebv.RangeEngine, error) {
	return stridebv.NewRange(rs, stride)
}

// ActionOf resolves a classification result to the rule's action
// (default-deny on miss).
func ActionOf(rs *RuleSet, rule int) Action { return core.Action(rs, rule) }

// NewFlowCache builds the exact-match flow cache (the zero Config selects
// 1<<16 entries).
func NewFlowCache(cfg FlowCacheConfig) *FlowCache { return flowcache.New(cfg) }

// NewCached fronts an engine with the flow cache under a freshly allocated
// generation: repeated 5-tuples are answered from the cache, and retiring
// a build (allocating a new generation over the same cache) turns its
// entries into lazy misses. See internal/flowcache for the generation
// invariant.
func NewCached(eng Engine, cache *FlowCache) *Cached { return core.NewCached(eng, cache) }

// FlowHeaders draws a flow population from the ruleset for the skewed
// traffic generators: n flow headers, matchFraction of them directed into
// rule match regions.
func FlowHeaders(rs *RuleSet, n int, matchFraction float64, seed int64) []Header {
	return ruleset.FlowHeaders(rs, n, matchFraction, seed)
}

// ZipfTrace draws a skewed flow-burst trace over the flow population
// (flows[0] is the hottest; see ZipfTraceConfig).
func ZipfTrace(flows []Header, cfg ZipfTraceConfig) ([]Header, error) {
	return packet.ZipfTrace(flows, cfg)
}

// ClassifyBatch classifies hdrs into out (one rule index or -1 per header;
// lengths must match), using the engine's native batch path when it has one
// and a per-packet loop otherwise. For the batch-capable engines the steady
// state allocates nothing, so sustained packets/sec measures the algorithm
// rather than the allocator.
func ClassifyBatch(eng Engine, hdrs []Header, out []int) {
	core.ClassifyBatchInto(eng, hdrs, out)
}

// Verification and comparison.

// Verify differentially tests an engine against the linear reference over
// a trace; it returns a description of the first divergence, or "" when
// the engine is equivalent on the trace.
func Verify(rs *RuleSet, eng Engine, trace []Header) string {
	ms := core.Verify(core.NewLinear(rs), eng, trace)
	if len(ms) == 0 {
		return ""
	}
	return ms[0].String()
}

// Virtex7 returns the paper's evaluation FPGA.
func Virtex7() Device { return fpga.Virtex7() }

// Compare runs the paper's head-to-head evaluation (StrideBV k∈{3,4} with
// both memory types vs TCAM) for one ruleset on the device.
func Compare(rs *RuleSet, d Device, seed int64) (*Comparison, error) {
	return experiments.Compare(experiments.CompareConfig{
		RuleSet: rs,
		Device:  d,
		Mode:    floorplan.Automatic,
		Seed:    seed,
	})
}

// EvaluateStrideBVHardware reports the hardware model (clock, throughput,
// resources, power) for a StrideBV build of the ruleset. memory is
// "distram" or "bram"; floorplanned selects PlanAhead-style placement.
func EvaluateStrideBVHardware(rs *RuleSet, d Device, stride int, memory string, floorplanned bool, seed int64) (Report, error) {
	mem := fpga.DistRAM
	if memory == "bram" {
		mem = fpga.BlockRAM
	}
	mode := floorplan.Automatic
	if floorplanned {
		mode = floorplan.Floorplanned
	}
	c := fpga.StrideBVConfig{Ne: rs.Expand().Len(), K: stride, Memory: mem}
	return fpga.EvaluateStrideBV(d, c, mode, seed)
}

// EvaluateTCAMHardware reports the hardware model for an FPGA TCAM build
// of the ruleset.
func EvaluateTCAMHardware(rs *RuleSet, d Device, seed int64) (Report, error) {
	return fpga.EvaluateTCAM(d, fpga.TCAMConfig{Ne: rs.Expand().Len()}, seed)
}
