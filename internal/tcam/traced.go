package tcam

import (
	"pktclass/internal/obsv"
	"pktclass/internal/packet"
)

// ClassifyTraced classifies h exactly like Classify while narrating the
// search into tr: one tcam-search hop carrying the number of asserted
// match lines (every entry is compared in parallel in hardware, so the
// count is the fan-in the priority encoder sees), then a priority-encode
// hop with the winning entry index (-1 when no line asserted).
//
//pclass:hotpath
func (t *Behavioral) ClassifyTraced(h packet.Header, tr *obsv.PacketTrace) int {
	if tr == nil {
		return t.Classify(h)
	}
	tr.SetEngine(t.Name())
	hi, lo := h.Words()
	matches, first := 0, -1
	for i := range t.rows {
		if t.rows[i].matches(hi, lo) {
			matches++
			if first < 0 {
				first = i
			}
		}
	}
	tr.AddHop(obsv.HopTCAMSearch, 0, int64(matches))
	tr.AddHop(obsv.HopPriorityEncode, 0, int64(first))
	if first < 0 {
		return -1
	}
	return int(t.parent[first])
}
