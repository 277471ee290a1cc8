package stridebv

import (
	"pktclass/internal/obsv"
	"pktclass/internal/packet"
)

// ClassifyTraced classifies h exactly like Classify while narrating the
// pipeline into tr: one stride-stage hop per stage carrying the popcount of
// the surviving bit vector after that stage's AND (the paper's Figure 5
// pipeline, observed live), then a priority-encode hop with the winning
// expanded-entry index. The popcount sequence is the engine's selectivity
// profile — it shows which stage kills the candidate set.
//
//pclass:hotpath
func (e *Engine) ClassifyTraced(h packet.Header, tr *obsv.PacketTrace) int {
	if tr == nil {
		return e.Classify(h)
	}
	tr.SetEngine(e.Name())
	sc := e.getScratch()
	h.StridesInto(e.k, sc.addrs)
	acc := sc.acc
	acc.CopyFrom(e.StageVector(0, sc.addrs[0]))
	tr.AddHop(obsv.HopStrideStage, 0, int64(acc.Ones()))
	for s := 1; s < e.stages; s++ {
		acc.AndWith(e.StageVector(s, sc.addrs[s]))
		tr.AddHop(obsv.HopStrideStage, s, int64(acc.Ones()))
	}
	entry := acc.FirstSet()
	tr.AddHop(obsv.HopPriorityEncode, 0, int64(entry))
	e.putScratch(sc)
	if entry < 0 {
		return -1
	}
	return int(e.parent[entry])
}
