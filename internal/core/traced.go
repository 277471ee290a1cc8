package core

import (
	"pktclass/internal/obsv"
	"pktclass/internal/packet"
)

// TracedClassifier is implemented by engines that can narrate a single
// classification hop by hop into a sampled packet trace: the flow-cache
// probe, every StrideBV pipeline stage's surviving popcount, the TCAM
// match-line count, the priority-encoder winner. The result must be
// bit-identical to Classify; a nil trace must behave exactly like
// Classify.
type TracedClassifier interface {
	ClassifyTraced(h packet.Header, tr *obsv.PacketTrace) int
}

// ClassifyTraced classifies h, recording per-stage hops into tr when the
// engine has a traced path. Engines without one still contribute a single
// engine hop carrying the result, so every sampled trace terminates with a
// decision regardless of the engine mix. A nil tr dispatches straight to
// Classify.
//
//pclass:hotpath
func ClassifyTraced(eng Engine, h packet.Header, tr *obsv.PacketTrace) int {
	if tr == nil {
		return eng.Classify(h)
	}
	if tc, ok := eng.(TracedClassifier); ok {
		return tc.ClassifyTraced(h, tr)
	}
	tr.SetEngine(eng.Name())
	r := eng.Classify(h)
	tr.AddHop(obsv.HopEngine, 0, int64(r))
	return r
}

// ClassifyTraced consults the flow cache first, recording the probe as a
// hit or miss hop, then narrates the wrapped engine's decision on a miss.
// The cache insert happens after tracing so the recorded hops describe
// exactly the work a cold lookup performs.
//
//pclass:hotpath
func (c *Cached) ClassifyTraced(h packet.Header, tr *obsv.PacketTrace) int {
	if tr == nil {
		return c.Classify(h)
	}
	tr.SetEngine(c.Name())
	key := h.Key()
	if r, ok := c.cache.Lookup(key, c.gen); ok {
		tr.AddHop(obsv.HopCacheHit, 0, int64(r))
		return int(r)
	}
	tr.AddHop(obsv.HopCacheMiss, 0, -1)
	r := ClassifyTraced(c.eng, h, tr)
	c.cache.Insert(key, c.gen, int32(r))
	return r
}
