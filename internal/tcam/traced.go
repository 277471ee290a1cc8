package tcam

import (
	"pktclass/internal/obsv"
	"pktclass/internal/packet"
)

// ClassifyTraced classifies h exactly like Classify while narrating the
// search into tr: one tcam-search hop carrying the number of asserted
// match lines (every row is compared in parallel in hardware, so the
// count is the fan-in the priority encoder sees), then a priority-encode
// hop with the winning row, which is the winning rule (-1 when no line
// asserted).
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
		if t.match(i, hi, lo) {
			matches++
			if first < 0 {
				first = i
			}
		}
	}
	tr.AddHop(obsv.HopTCAMSearch, 0, int64(matches))
	tr.AddHop(obsv.HopPriorityEncode, 0, int64(first))
	return first
}
