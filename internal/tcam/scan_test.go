package tcam

import (
	"testing"

	"pktclass/internal/ruleset"
)

// TestBehavioralRowsScanned pins the extended TCAM's work on the serving
// benchmark's tcam_miss geometry (512 firewall rules with the default rule,
// seed 1; 256 directed headers at match fraction 0.9, seed 2) as two exact
// counts a software search pays per packet: the rows compared until the
// first accepted row (the whole table on a miss), and the rows among them
// whose ternary word matched but whose port bounds rejected the key. For
// reference it also pins the entries the expanded table read before its
// first hit on the same traffic.
func TestBehavioralRowsScanned(t *testing.T) {
	const (
		wantExpandedScanned = 127412 // 497.7 per packet of 934 entries
		wantRowsScanned     = 68417  // 267.3 per packet of 512 rows
		wantRejected        = 0
	)
	rs := ruleset.Generate(ruleset.GenConfig{N: 512, Profile: ruleset.FirewallProfile, Seed: 1, DefaultRule: true})
	ex := rs.Expand()
	eng := NewBehavioral(ex)
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 256, MatchFraction: 0.9, Seed: 2})
	expanded, scanned, rejected := 0, 0, 0
	for _, h := range trace {
		k := h.Key()
		e := 0
		for e < ex.Len() && !ex.Entries[e].MatchesKey(k) {
			e++
		}
		expanded += min(e+1, ex.Len())
		hi, lo := h.Words()
		i := 0
		for ; i < len(eng.rows); i++ {
			if eng.rows[i].matches(hi, lo) {
				if eng.bounds[i].admits(lo) {
					break
				}
				rejected++
			}
		}
		scanned += min(i+1, len(eng.rows))
		if got := eng.Classify(h); (i == len(eng.rows) && got != -1) || (i < len(eng.rows) && got != i) {
			t.Fatalf("Classify = %d, but the scan stopped at row %d for %s", got, i, h)
		}
	}
	n := float64(len(trace))
	t.Logf("%d headers: expanded table %.1f entries/pkt of %d; extended TCAM %.1f rows/pkt of %d, %.2f bounds rejections/pkt",
		len(trace), float64(expanded)/n, ex.Len(), float64(scanned)/n, len(eng.rows), float64(rejected)/n)
	if expanded != wantExpandedScanned || scanned != wantRowsScanned || rejected != wantRejected {
		t.Fatalf("scanned %d expanded entries, %d rows with %d bounds rejections; want %d, %d, %d",
			expanded, scanned, rejected, wantExpandedScanned, wantRowsScanned, wantRejected)
	}
}
