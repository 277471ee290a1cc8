package ruleset

import (
	"math/rand"

	"pktclass/internal/packet"
)

// Flow-level traffic. Real firewall traffic is flows — repeated headers
// with heavy-tailed popularity — not independent packets. Flow populations
// matter for the flow cache and for the engines' memory access locality;
// the classification result stream is unchanged.

// FlowHeaders draws a flow population for the skewed-traffic generators
// (packet.ZipfTrace): n distinct-by-construction flow headers,
// matchFraction of them directed into rule match regions and the rest
// uniform. Popularity rank is draw order — the directed/uniform mix is
// independent of rank, so hot and cold flows hit rules at the same rate
// and a trace's match/default mix stays controllable separately from its
// skew.
func FlowHeaders(rs *RuleSet, n int, matchFraction float64, seed int64) []packet.Header {
	rng := rand.New(rand.NewSource(seed))
	out := make([]packet.Header, n)
	for i := range out {
		if rng.Float64() < matchFraction && rs.Len() > 0 {
			out[i] = HeaderInRule(rs.Rules[rng.Intn(rs.Len())], rng)
		} else {
			out[i] = RandomHeader(rng)
		}
	}
	return out
}
