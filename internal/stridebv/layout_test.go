package stridebv_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pktclass/internal/bitvec"
	"pktclass/internal/core"
	"pktclass/internal/genbv"
	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
	"pktclass/internal/stridebv"
)

// layoutFixture is a prefix-only ruleset of exactly ne entries (one per
// rule) with no default rule, so uniform headers mostly match nothing; wild
// plants an all-wildcard entry mid-table, whose bit is set in every row of
// every stage. The headers mix directed and uniform draws.
func layoutFixture(t testing.TB, ne int, wild bool) (*ruleset.RuleSet, *ruleset.Expanded, []packet.Header) {
	t.Helper()
	rules := ruleset.Generate(ruleset.GenConfig{N: ne, Profile: ruleset.PrefixOnly, Seed: int64(ne)}).Rules
	if wild {
		rules[ne/2] = ruleset.NewWildcardRule(ruleset.Action{Kind: ruleset.Drop})
	}
	rs := ruleset.New(rules)
	ex := rs.Expand()
	if ex.Len() != ne {
		t.Fatalf("fixture expands to %d entries, want %d", ex.Len(), ne)
	}
	hdrs := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 40, MatchFraction: 0.6, Seed: int64(ne) + 1})
	return rs, ex, hdrs
}

// layoutSizes are entry counts either side of each layout boundary: one
// word, one word ± 1 bit, one summary word (4096 entries) and one summary
// word + 1 entry.
var layoutSizes = []int{1, 63, 64, 65, 4096, 4097}

// skipRaced trims the raced run: builds of the big tables take seconds each
// under the detector, and the plain run has them all.
func skipRaced(ne, k int) bool {
	return stridebv.RaceEnabled && ne >= 4096 && k != 3 && k != 4
}

// TestLayoutDifferential checks the one stage memory — block layout,
// summary index, walker — against the references through every front end
// that rides it, on every stride and on entry counts either side of each
// layout boundary.
func TestLayoutDifferential(t *testing.T) {
	t.Run("5tuple", layout5Tuple)
	t.Run("range", layoutRange)
	t.Run("generic", layoutGeneric)
}

// layout5Tuple: Classify/ClassifyBatch answer like core.NewLinear;
// MatchVector and MultiMatch agree with per-entry Ternary.MatchesKey. The
// 5-tuple axis also takes a third summary word (8203 entries).
func layout5Tuple(t *testing.T) {
	for _, ne := range append([]int{8203}, layoutSizes...) {
		for _, wild := range []bool{false, true} {
			rs, ex, hdrs := layoutFixture(t, ne, wild)
			linear := core.NewLinear(rs)
			want := make([]bitvec.Vector, len(hdrs))
			misses := 0
			for i, h := range hdrs {
				want[i] = bitvec.New(ne)
				for j, entry := range ex.Entries {
					want[i].SetTo(j, entry.MatchesKey(h.Key()))
				}
				if want[i].IsZero() {
					misses++
				}
			}
			if wild == (misses > 0) {
				t.Fatalf("ne=%d wild=%v: %d of %d headers match nothing", ne, wild, misses, len(hdrs))
			}
			for k := stridebv.MinStride; k <= stridebv.MaxStride; k++ {
				if skipRaced(ne, k) {
					continue
				}
				name := fmt.Sprintf("ne=%d wild=%v k=%d", ne, wild, k)
				e, err := stridebv.New(ex, k)
				if err != nil {
					t.Fatal(err)
				}
				out := make([]int, len(hdrs))
				e.ClassifyBatch(hdrs, out)
				for i, h := range hdrs {
					ref := linear.Classify(h)
					if got := e.Classify(h); got != ref || out[i] != ref {
						t.Fatalf("%s: Classify %d, ClassifyBatch %d, linear %d for %s", name, got, out[i], ref, h)
					}
					if got := e.MatchVector(h.Key()); !got.Equal(want[i]) {
						t.Fatalf("%s: MatchVector %v, MatchesKey %v for %s", name, got.SetBits(), want[i].SetBits(), h)
					}
					// One entry per rule, so the matching rules are the matching entries.
					if got := e.MultiMatch(h); fmt.Sprint(got) != fmt.Sprint(want[i].SetBits()) {
						t.Fatalf("%s: MultiMatch %v, MatchesKey %v for %s", name, got, want[i].SetBits(), h)
					}
				}
			}
		}
	}
}

// layoutRange: the range engine keeps one bit per rule, so the fixtures are
// rulesets with real port ranges (which the ternary path would expand), with
// and without a catch-all default rule. Classify/ClassifyBatch answer like
// core.NewLinear; MultiMatch and MatchVector agree with RuleSet.AllMatches.
func layoutRange(t *testing.T) {
	for _, ne := range layoutSizes {
		for i, profile := range []ruleset.Profile{ruleset.FirewallProfile, ruleset.FeatureFree} {
			rs := ruleset.Generate(ruleset.GenConfig{N: ne, Profile: profile, Seed: int64(ne), DefaultRule: i == 0})
			if rs.Expand().Len() == ne && ne > 1 {
				t.Fatalf("ne=%d %v: no rule carries a port range", ne, profile)
			}
			hdrs := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 60, MatchFraction: 0.8, Seed: int64(ne) + 1})
			linear := core.NewLinear(rs)
			for k := stridebv.MinStride; k <= stridebv.MaxStride; k++ {
				if skipRaced(ne, k) {
					continue
				}
				name := fmt.Sprintf("ne=%d %v k=%d", ne, profile, k)
				e, err := stridebv.NewRange(rs, k)
				if err != nil {
					t.Fatal(err)
				}
				out := make([]int, len(hdrs))
				e.ClassifyBatch(hdrs, out)
				for i, h := range hdrs {
					ref := linear.Classify(h)
					if got := e.Classify(h); got != ref || out[i] != ref {
						t.Fatalf("%s: Classify %d, ClassifyBatch %d, linear %d for %s", name, got, out[i], ref, h)
					}
					all := fmt.Sprint(rs.AllMatches(h))
					if got := e.MultiMatch(h); fmt.Sprint(got) != all {
						t.Fatalf("%s: MultiMatch %v, AllMatches %s for %s", name, got, all, h)
					}
					if got := e.MatchVector(h); got.Len() != ne || fmt.Sprint(got.SetBits()) != all {
						t.Fatalf("%s: MatchVector %v, AllMatches %s for %s", name, got.SetBits(), all, h)
					}
				}
			}
		}
	}
}

// randTernaries draws ne w-bit patterns with sparse care masks (about one
// bit in eight, none past w), so keys derived from an entry's value
// actually match.
func randTernaries(rng *rand.Rand, w, ne int) []genbv.Ternary {
	nbytes := (w + 7) / 8
	entries := make([]genbv.Ternary, ne)
	for i := range entries {
		v, m := make([]byte, nbytes), make([]byte, nbytes)
		rng.Read(v)
		rng.Read(m)
		for b := range m {
			m[b] &= byte(rng.Intn(256)) & byte(rng.Intn(256))
		}
		m[nbytes-1] &^= byte(1)<<uint(nbytes*8-w) - 1
		entries[i] = genbv.Ternary{Value: v, Mask: m}
	}
	return entries
}

// layoutGeneric: byte-string keys of widths that leave fewer stages than
// the walker's lead (W = 8), a final stride straddling the key's end
// (W = 13, 104 at k = 3, 300 at k = 7, 8) and the OpenFlow tuple's 256 bits,
// against the byte-level genbv.TCAM. Half the keys carry junk in the bits
// past W, which no entry cares about and the stride extractor must drop.
func layoutGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, w := range []int{8, 13, 72, 104, 256, 300} {
		nbytes := (w + 7) / 8
		pad := byte(1)<<uint(nbytes*8-w) - 1
		for _, ne := range layoutSizes {
			entries := randTernaries(rng, w, ne)
			keys := make([][]byte, 60)
			for i := range keys {
				keys[i] = make([]byte, nbytes)
				rng.Read(keys[i])
				if i%3 == 0 { // directed: an entry's value with one byte redrawn
					copy(keys[i], entries[rng.Intn(ne)].Value)
					keys[i][rng.Intn(nbytes)] = byte(rng.Intn(256))
				}
				if i%2 == 0 {
					keys[i][nbytes-1] &^= pad
				}
			}
			// The byte-level references, once per key: the TCAM's first match
			// and every entry's own Matches.
			ref := genbv.NewTCAM(entries, w)
			first, all := make([]int, len(keys)), make([]string, len(keys))
			hits := 0
			for i, key := range keys {
				var matching []int
				for j, entry := range entries {
					if entry.Matches(key) {
						matching = append(matching, j)
					}
				}
				first[i], all[i] = ref.Classify(key), fmt.Sprint(matching)
				if first[i] >= 0 {
					hits++
				}
			}
			if ne > 1 && hits == 0 {
				t.Fatalf("W=%d ne=%d: no key matched any entry", w, ne)
			}
			for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8} {
				if skipRaced(ne, k) || stridebv.RaceEnabled && ne >= 4096 && w > 104 {
					continue
				}
				name := fmt.Sprintf("W=%d ne=%d k=%d", w, ne, k)
				e, err := genbv.New(entries, w, k)
				if err != nil {
					t.Fatal(err)
				}
				stages := (w + k - 1) / k
				if e.Width() != w || e.NumEntries() != ne || e.Stages() != stages || e.MemoryBits() != stages*(1<<k)*ne {
					t.Fatalf("%s: geometry W=%d Ne=%d stages=%d bits=%d", name, e.Width(), e.NumEntries(), e.Stages(), e.MemoryBits())
				}
				for i, key := range keys {
					if got, err := e.Classify(key); err != nil || got != first[i] {
						t.Fatalf("%s: engine %d (%v), tcam %d for key % x", name, got, err, first[i], key)
					}
					vec := e.Match(key)
					if vec.Len() != ne || fmt.Sprint(vec.SetBits()) != all[i] {
						t.Fatalf("%s: Match %v, Matches %s for key % x", name, vec.SetBits(), all[i], key)
					}
				}
			}
		}
	}
}

// TestBuildMemoryMatchesBitProbeOracle: memory programmed 64 entries per
// word by BuildMemory holds, bit for bit, what the bit-probe oracle says —
// over widths whose last stage is padded, entry counts either side of the
// word and summary-word boundaries, values with junk under their don't-care
// bits and a few invalid entries — with no bit set past Ne, and with the
// populations, walk order and lead summaries RefreshSummaries derives from
// the stored words, the lead summaries also equal to a derivation of their
// own from the stored vectors. The strides cover every lead grouping: one
// group of four stages (k = 1, 2), pairs (k = 3, 4) and single stages
// (k >= 5). Past 4096 entries the oracle probes every seventh entry and
// the whole last word.
func TestBuildMemoryMatchesBitProbeOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, w := range []int{8, 13, 72, 104, 256, 300} {
		for _, ne := range layoutSizes {
			entries := randTernaries(rng, w, ne)
			valid := make([]bool, ne)
			for j := range valid {
				valid[j] = ne < 4 || rng.Intn(16) != 0
			}
			words := (ne + 63) / 64
			for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8} {
				if stridebv.RaceEnabled && ne >= 4096 && (k > 4 || w > 104) {
					continue
				}
				name := fmt.Sprintf("W=%d ne=%d k=%d", w, ne, k)
				m, err := stridebv.BuildMemory(w, k, ne, func(j int) ([]byte, []byte, bool) {
					return entries[j].Value, entries[j].Mask, valid[j]
				})
				if err != nil {
					t.Fatal(err)
				}
				ref := m
				ref.RefreshSummaries()
				blk, lead, ones, order := m.Programmed()
				_, rLead, rOnes, rOrder := ref.Programmed()
				if !reflect.DeepEqual(ones, rOnes) || !reflect.DeepEqual(order, rOrder) {
					t.Fatalf("%s: populations %v / %v, order %v / %v", name, ones, rOnes, order, rOrder)
				}
				if !reflect.DeepEqual(lead, rLead) {
					t.Fatalf("%s: lead summaries differ from the stored words'", name)
				}
				if !reflect.DeepEqual(lead, m.DeriveLead()) {
					t.Fatalf("%s: lead summaries differ from a derivation from the stored vectors", name)
				}
				for s := range blk {
					for c := 0; c < 1<<uint(k); c++ {
						row := blk[s][c*words:][:words]
						if ne%64 != 0 && row[words-1]>>uint(ne%64) != 0 {
							t.Fatalf("%s: stage %d row %d has bits past Ne", name, s, c)
						}
						for j := range entries {
							if ne >= 4096 && j%7 != 0 && j < ne-64 {
								continue
							}
							got := row[j>>6]>>uint(j&63)&1 == 1
							if want := stridebv.Compatible(entries[j].Value, entries[j].Mask, valid[j], w, k, s, c); got != want {
								t.Fatalf("%s: stage %d row %d entry %d: stored %v, oracle %v", name, s, c, j, got, want)
							}
						}
					}
				}
			}
		}
	}
}
