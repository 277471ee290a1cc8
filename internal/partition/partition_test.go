package partition_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"pktclass/internal/core"
	"pktclass/internal/packet"
	"pktclass/internal/partition"
	"pktclass/internal/ruleset"
	"pktclass/internal/stridebv"
	"pktclass/internal/tcam"
	"pktclass/internal/update"
)

func buildStride(rs *ruleset.RuleSet) (core.Engine, error) {
	return stridebv.New(rs.Expand(), 4)
}

func buildLinear(rs *ruleset.RuleSet) (core.Engine, error) {
	return core.NewLinear(rs), nil
}

func buildTCAM(rs *ruleset.RuleSet) (core.Engine, error) {
	return tcam.NewBehavioral(rs.Expand()), nil
}

func buildRange(rs *ruleset.RuleSet) (core.Engine, error) {
	return stridebv.NewRange(rs, 4)
}

// buildMixedK returns a Build hook for one engine whose StrideBV parts
// alternate k = 3 and k = 4.
func buildMixedK() func(*ruleset.RuleSet) (core.Engine, error) {
	n := 0
	return func(rs *ruleset.RuleSet) (core.Engine, error) {
		n++
		return stridebv.New(rs.Expand(), 3+n%2)
	}
}

func genSet(t testing.TB, n int, profile ruleset.Profile, seed int64) *ruleset.RuleSet {
	t.Helper()
	return ruleset.Generate(ruleset.GenConfig{N: n, Profile: profile, Seed: seed, DefaultRule: true})
}

func TestNewValidation(t *testing.T) {
	rs := genSet(t, 16, ruleset.PrefixOnly, 1)
	if _, err := partition.New(nil, partition.Config{Build: buildStride}); err == nil {
		t.Fatal("accepted nil ruleset")
	}
	if _, err := partition.New(rs, partition.Config{}); err == nil {
		t.Fatal("accepted missing Build hook")
	}
	if _, err := partition.New(rs, partition.Config{Build: buildStride, Splitter: "bogus"}); err == nil {
		t.Fatal("accepted unknown splitter")
	}
	if _, err := partition.New(rs, partition.Config{Build: buildStride, Parts: 65}); err == nil {
		t.Fatal("accepted 65 bands")
	}
	if _, err := partition.New(rs, partition.Config{Build: buildStride, PrefixBits: partition.MaxPrefixBits + 1}); err == nil {
		t.Fatal("accepted oversized prefix bits")
	}
}

// opaque hides a sub-engine's concrete type, so that every part, StrideBV
// ones too, answers the partitioned engine through its own Classify.
type opaque struct{ core.Engine }

func (o opaque) ClassifyBatch(hdrs []packet.Header, out []int) {
	core.ClassifyBatchInto(o.Engine, hdrs, out)
}

func hide(build func(*ruleset.RuleSet) (core.Engine, error)) func(*ruleset.RuleSet) (core.Engine, error) {
	return func(rs *ruleset.RuleSet) (core.Engine, error) {
		eng, err := build(rs)
		return opaque{eng}, err
	}
}

// Differential property: for every profile, splitter and geometry, the
// partitioned engine must agree with the linear reference on Classify
// (single-packet and batch) and with a flat engine on MultiMatch, over
// directed and uniform-random headers, over StrideBV (one k and mixed k),
// RangeBV, TCAM and linear parts. Bare StrideBV parts are walked;
// TestPartitionDifferentialGeneric hides every part's type, so that each
// answers through Classify.
func TestPartitionDifferential(t *testing.T) { testDifferential(t, false) }

func TestPartitionDifferentialGeneric(t *testing.T) { testDifferential(t, true) }

func testDifferential(t *testing.T, hidden bool) {
	configs := []partition.Config{
		{Splitter: partition.PrefixSplit},
		{Splitter: partition.PrefixSplit, Parts: 2, PrefixBits: 2},
		{Splitter: partition.PrefixSplit, Parts: 7, PrefixBits: 6},
		// On the feature-free profile about a tenth of the rules are
		// residual, and their range-expanded ternary entries outnumber 2048:
		// one band past the flat engine's ceiling, beside 2^10 buckets.
		{Splitter: partition.PrefixSplit, PrefixBits: partition.MaxPrefixBits},
		{Splitter: partition.BandSplit, Parts: 3},
		{Splitter: partition.BandSplit, Parts: 16},
	}
	const wideResidual = 3
	seed := int64(90)
	for _, profile := range []ruleset.Profile{ruleset.FirewallProfile, ruleset.FeatureFree, ruleset.PrefixOnly} {
		for ci, cfg := range configs {
			for _, builder := range []func(*ruleset.RuleSet) (core.Engine, error){
				buildStride, buildLinear, buildTCAM, buildRange, buildMixedK(),
			} {
				seed++
				cfg.Build = builder
				if hidden {
					cfg.Build = hide(builder)
				}
				n := 128
				if ci == wideResidual {
					n = 1024
				}
				rs := genSet(t, n, profile, seed)
				lin := core.NewLinear(rs)
				flat, err := stridebv.New(rs.Expand(), 4)
				if err != nil {
					t.Fatal(err)
				}
				part, err := partition.New(rs, cfg)
				if err != nil {
					t.Fatalf("cfg %d: %v", ci, err)
				}
				if part.NumRules() != rs.Len() {
					t.Fatalf("NumRules = %d want %d", part.NumRules(), rs.Len())
				}
				if ci == wideResidual && profile == ruleset.FeatureFree {
					if entries := residualEntries(rs, geometry(t, part).b); entries <= 2048 || geometry(t, part).always != 1 {
						t.Fatalf("%v cfg %d: %s over %d residual entries, want one band over more than 2048", profile, ci, part, entries)
					}
				}
				var hdrs []packet.Header
				hdrs = append(hdrs, ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 300, MatchFraction: 0.8, Seed: seed * 3})...)
				rng := rand.New(rand.NewSource(seed * 5))
				for i := 0; i < 100; i++ {
					hdrs = append(hdrs, ruleset.RandomHeader(rng))
				}
				// BandSplit has no pre-decoder (b = 0); b = 1 there still
				// puts a header inside every rule with a DIP prefix.
				hdrs = append(hdrs, dipWinners(rs, max(geometry(t, part).b, 1), rng)...)
				label := fmt.Sprintf("%v cfg %d", profile, ci)
				checkBatches(t, label, part, lin, hdrs, 0, 1, 3, 256, 400)
				for _, h := range hdrs {
					want := lin.Classify(h)
					if got := part.Classify(h); got != want {
						t.Fatalf("%s: Classify=%d linear=%d for %s", label, got, want, h)
					}
					gm, wm := part.MultiMatch(h), flat.MultiMatch(h)
					if len(gm) != len(wm) {
						t.Fatalf("%s: MultiMatch %v != %v for %s", label, gm, wm, h)
					}
					for j := range wm {
						if gm[j] != wm[j] {
							t.Fatalf("%s: MultiMatch %v != %v for %s", label, gm, wm, h)
						}
					}
				}
			}
		}
	}
}

// dipWinners returns a header inside every rule whose DIP prefix is at
// least b bits long, the rules b steering bits put in a DIP bucket. Each
// such header's DIP part yields a winner at or before that rule, and the
// residual parts searched after it hold the trailing default rule, which
// matches every header: wherever a residual part's entries straddle that
// winner inside one 64-entry word, the strided lookup's walk of the part
// ends in that word and must drop the default rule's survivor.
func dipWinners(rs *ruleset.RuleSet, b int, rng *rand.Rand) []packet.Header {
	var hdrs []packet.Header
	for _, r := range rs.Rules {
		if b > 0 && r.DIP.Len >= b {
			hdrs = append(hdrs, ruleset.HeaderInRule(r, rng))
		}
	}
	return hdrs
}

// partGeometry is what String reports about a partitioned engine.
type partGeometry struct {
	parts, always, largest, b int
	mean                      float64
}

// geometry reads the partition geometry out of String. String reports the
// pre-decoder width B only where one exists (PrefixSplit); b is 0 without.
func geometry(t *testing.T, part *partition.Engine) partGeometry {
	t.Helper()
	var g partGeometry
	s := part.String()[len(part.Name()):]
	format, args := "{parts=%d always=%d largest=%d mean=%f}", []any{&g.parts, &g.always, &g.largest, &g.mean}
	if strings.Contains(s, " B=") {
		format, args = "{parts=%d always=%d largest=%d mean=%f B=%d}", append(args, &g.b)
	}
	if _, err := fmt.Sscanf(s, format, args...); err != nil {
		t.Fatalf("String = %q: %v", part.String(), err)
	}
	return g
}

// residualEntries counts the ternary entries of the rules PrefixSplit with
// b steering bits leaves to the residual bands.
func residualEntries(rs *ruleset.RuleSet, b int) int {
	n := 0
	for _, r := range rs.Rules {
		if r.DIP.Len < b && r.SIP.Len < b {
			n += r.ExpansionFactor()
		}
	}
	return n
}

// A wildcard-heavy ruleset must still partition correctly: most rules land
// in the residual bands and every lookup searches them.
func TestPartitionAllWildcardRules(t *testing.T) {
	rules := make([]ruleset.Rule, 32)
	for i := range rules {
		rules[i] = ruleset.NewWildcardRule(ruleset.Action{Port: i})
	}
	rs := ruleset.New(rules)
	part, err := partition.New(rs, partition.Config{Build: buildStride, Parts: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(101))
	for i := 0; i < 50; i++ {
		if got := part.Classify(ruleset.RandomHeader(rng)); got != 0 {
			t.Fatalf("Classify = %d want 0", got)
		}
	}
	if mm := part.MultiMatch(packet.Header{}); len(mm) != 32 {
		t.Fatalf("MultiMatch returned %d rules, want 32", len(mm))
	}
}

func TestPartitionGeometry(t *testing.T) {
	rs := genSet(t, 4096, ruleset.FirewallProfile, 103)
	part, err := partition.New(rs, partition.Config{Build: buildStride})
	if err != nil {
		t.Fatal(err)
	}
	if part.NumParts() < 2 {
		t.Fatalf("only %d parts at N=4096", part.NumParts())
	}
	if !strings.HasPrefix(part.Name(), "part-prefix-") {
		t.Fatalf("Name = %q", part.Name())
	}
	// String reports the default splitter's automatic prefix bits and the
	// bucket balance: rules in the largest part beside the mean over all
	// parts.
	g := geometry(t, part)
	parts, largest, mean := g.parts, g.largest, g.mean
	if g.b < 1 {
		t.Fatalf("String = %q: auto prefix bits %d", part.String(), g.b)
	}
	if parts != part.NumParts() || g.always != 1 {
		t.Fatalf("String = %q, want parts=%d always=1", part.String(), part.NumParts())
	}
	if want := float64(rs.Len()) / float64(parts); mean < want-0.05 || mean > want+0.05 {
		t.Fatalf("String = %q, want mean %.1f", part.String(), want)
	}
	if float64(largest) < mean || largest > rs.Len() {
		t.Fatalf("String = %q: largest outside [mean, N]", part.String())
	}
	band, err := partition.New(rs, partition.Config{Build: buildStride, Splitter: partition.BandSplit, Parts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(band.Name(), "part-band-") {
		t.Fatalf("band Name = %q", band.Name())
	}
	if band.NumParts() != 4 {
		t.Fatalf("band parts = %d want 4", band.NumParts())
	}
	// BandSplit has no pre-decoder, so String reports no width for one.
	if g := geometry(t, band); strings.Contains(band.String(), "B=") || g.parts != 4 || g.always != 4 {
		t.Fatalf("band String = %q, want parts=4 always=4 and no B=", band.String())
	}
	// The default is one band under either splitter, however many entries
	// it holds: 4096 firewall rules expand to more than 4096.
	one, err := partition.New(rs, partition.Config{Build: buildStride, Splitter: partition.BandSplit})
	if err != nil {
		t.Fatal(err)
	}
	if one.NumParts() != 1 {
		t.Fatalf("default band parts = %d want 1", one.NumParts())
	}
}

// Geometry must not depend on the machine: the default band count is a
// constant, so the same ruleset partitions identically whatever GOMAXPROCS
// says.
func TestGeometryIgnoresGOMAXPROCS(t *testing.T) {
	rs := genSet(t, 1024, ruleset.FirewallProfile, 104)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, splitter := range []partition.Splitter{partition.PrefixSplit, partition.BandSplit} {
		var geom [2]string
		for i, procs := range []int{1, 8} {
			runtime.GOMAXPROCS(procs)
			part, err := partition.New(rs, partition.Config{Build: buildLinear, Splitter: splitter})
			if err != nil {
				t.Fatal(err)
			}
			geom[i] = fmt.Sprintf("%d %s", part.NumParts(), part)
		}
		if geom[0] != geom[1] {
			t.Fatalf("%s geometry differs: GOMAXPROCS=1 %q, GOMAXPROCS=8 %q", splitter, geom[0], geom[1])
		}
	}
}

// checkBatches drives eng through batches cut from trace in the given
// sizes, cycling through them until trace is spent, and compares every
// result with ref. Sizes that shrink after a large batch make a recycled
// scratch that kept a stale segment, offset or result show.
func checkBatches(t *testing.T, label string, eng, ref core.Engine, trace []packet.Header, sizes ...int) {
	t.Helper()
	for off, i := 0, 0; off < len(trace); i++ {
		n := min(sizes[i%len(sizes)], len(trace)-off)
		hdrs := trace[off : off+n]
		off += n
		out := make([]int, n)
		core.ClassifyBatchInto(eng, hdrs, out)
		for i, h := range hdrs {
			if want := ref.Classify(h); out[i] != want {
				t.Fatalf("%s, batch of %d: %v for %s", label, n, errDiff(i, out[i], want), h)
			}
		}
	}
}

// reuseSizes cut TestBatchScratchReuse's 661-packet trace exactly once.
var reuseSizes = []int{0, 1, 400, 3, 256, 1}

// The batch scratch is recycled across batches of any size and shared with
// ApplyDeltas children; neither may leak one batch's state into the next.
func TestBatchScratchReuse(t *testing.T) {
	configs := []partition.Config{
		{Splitter: partition.PrefixSplit, Parts: 2, PrefixBits: 2},
		{Splitter: partition.BandSplit, Parts: 3},
		{Splitter: partition.BandSplit, Parts: 1}, // the single-part bypass
	}
	for ci, cfg := range configs {
		for _, sub := range []string{"stridebv", "linear"} {
			label := fmt.Sprintf("%s p%d over %s", cfg.Splitter, cfg.Parts, sub)
			rs := genSet(t, 128, ruleset.PrefixOnly, int64(120+ci))
			trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 661, MatchFraction: 0.8, Seed: int64(130 + ci)})
			cfg.Build = buildLinear
			if sub == "stridebv" {
				cfg.Build = buildStride
			}
			part, err := partition.New(rs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkBatches(t, label, part, core.NewLinear(rs), trace, reuseSizes...)

			// A child shares the parent's scratch pool. StrideBV sub-engines
			// take a real delta; core.Linear has no delta path, so its child
			// is the empty delta's copy.
			next := rs
			var rules []int
			var entries []ruleset.Ternary
			if sub == "stridebv" {
				j := steerableIndex(rs, 2)
				if j < 0 {
					t.Fatal("no DIP-steerable rule in fixture")
				}
				next = rs.Clone()
				//pclass:allow-mutate writing the test's private clone, not the shared input
				next.Rules[j] = narrowDIP(rs.Rules[j])
				if rules, entries, err = update.Deltas([]update.Op{{Index: j, Rule: next.Rules[j]}}); err != nil {
					t.Fatal(err)
				}
			}
			child, err := part.ApplyDeltas(rules, entries)
			if err != nil {
				t.Fatal(err)
			}
			checkBatches(t, label+" (child)", child, core.NewLinear(next), trace, reuseSizes...)
			checkBatches(t, label+" (parent again)", part, core.NewLinear(rs), trace, reuseSizes...)
		}
	}
}

// Concurrent batch classification across goroutines must be race-free and
// agree with the sequential path (run under -race in CI).
func TestPartitionConcurrentBatch(t *testing.T) {
	rs := genSet(t, 512, ruleset.FirewallProfile, 107)
	part, err := partition.New(rs, partition.Config{Build: buildStride})
	if err != nil {
		t.Fatal(err)
	}
	hdrs := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 256, MatchFraction: 0.8, Seed: 108})
	want := make([]int, len(hdrs))
	for i, h := range hdrs {
		want[i] = part.Classify(h)
	}
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			out := make([]int, len(hdrs))
			for iter := 0; iter < 20; iter++ {
				core.ClassifyBatchInto(part, hdrs, out)
				for i := range out {
					if out[i] != want[i] {
						done <- errDiff(i, out[i], want[i])
						return
					}
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

type diffErr struct{ i, got, want int }

func errDiff(i, got, want int) error { return diffErr{i, got, want} }
func (e diffErr) Error() string {
	return fmt.Sprintf("batch diverged at %d: got %d want %d", e.i, e.got, e.want)
}

// BenchmarkPartitionedBatch times 256-packet batches under the default
// config: fw/N2048 at the flat crossover, and prefix/N32768, the ruleset of
// the part_large serving workload (16 DIP buckets, 16 SIP buckets, one
// residual band), over StrideBV parts at k = 4, and the latter also over
// TCAM parts and over StrideBV parts alternating k = 3 and k = 4. CI gates
// every row at 0 allocs/op.
func BenchmarkPartitionedBatch(b *testing.B) {
	for _, bc := range []struct {
		name    string
		profile ruleset.Profile
		n       int
		build   func(*ruleset.RuleSet) (core.Engine, error)
	}{
		{"fw/N2048", ruleset.FirewallProfile, 2048, buildStride},
		{"prefix/N32768", ruleset.PrefixOnly, 32768, buildStride},
		{"tcam/prefix/N32768", ruleset.PrefixOnly, 32768, buildTCAM},
		{"mixedk/prefix/N32768", ruleset.PrefixOnly, 32768, nil},
	} {
		b.Run(bc.name, func(b *testing.B) {
			build := bc.build
			if build == nil {
				// A fresh hook per run, so every run alternates from k = 4.
				build = buildMixedK()
			}
			rs := ruleset.Generate(ruleset.GenConfig{N: bc.n, Profile: bc.profile, Seed: 1, DefaultRule: true})
			part, err := partition.New(rs, partition.Config{Build: build})
			if err != nil {
				b.Fatal(err)
			}
			hdrs := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 256, MatchFraction: 0.9, Seed: 2})
			out := make([]int, len(hdrs))
			// Warm the recycled scratch before counting allocs.
			core.ClassifyBatchInto(part, hdrs, out)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.ClassifyBatchInto(part, hdrs, out)
			}
		})
	}
}
