package update

import (
	"errors"
	"testing"

	"pktclass/internal/cli"
	"pktclass/internal/core"
	"pktclass/internal/flowcache"
	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
	"pktclass/internal/stridebv"
)

func TestApplyToRuleSetNoOpReturnsInput(t *testing.T) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 16, Profile: ruleset.PrefixOnly, Seed: 41})
	out, err := ApplyToRuleSet(rs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out != rs {
		t.Fatal("empty delta cloned the ruleset; callers use pointer equality to skip the rebuild")
	}
	out, err = ApplyToRuleSet(rs, []Op{})
	if err != nil {
		t.Fatal(err)
	}
	if out != rs {
		t.Fatal("empty op slice cloned the ruleset")
	}
}

func TestDeltasLowering(t *testing.T) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 32, Profile: ruleset.PrefixOnly, Seed: 42, DefaultRule: true})
	ops, err := GenerateOps(rs, 6, 43)
	if err != nil {
		t.Fatal(err)
	}
	rules, entries, err := Deltas(ops)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != len(ops) || len(entries) != len(ops) {
		t.Fatalf("lowered %d/%d deltas from %d ops", len(rules), len(entries), len(ops))
	}
	for i, op := range ops {
		if rules[i] != op.Index {
			t.Fatalf("delta %d row %d, want %d", i, rules[i], op.Index)
		}
		if want := op.Rule.TernaryEntries()[0]; entries[i] != want {
			t.Fatalf("delta %d entry mismatch", i)
		}
	}
	// A range rule expanding to several entries is structural: Deltas must
	// refuse with ErrDeltaUnsupported so the caller falls back to rebuild.
	multi := ruleset.Rule{
		SIP: ruleset.Prefix{Bits: 32}, DIP: ruleset.Prefix{Bits: 32},
		SP:    ruleset.PortRange{Lo: 1, Hi: 6},
		DP:    ruleset.FullPortRange,
		Proto: ruleset.AnyProtocol,
	}
	if n := len(multi.TernaryEntries()); n < 2 {
		t.Fatalf("fixture rule expands to %d entries, want >= 2", n)
	}
	if _, _, err := Deltas([]Op{{Index: 0, Rule: multi}}); !errors.Is(err, ErrDeltaUnsupported) {
		t.Fatalf("structural op error = %v, want ErrDeltaUnsupported", err)
	}
}

// TestApplyDeltasToEngineRoutesEveryFamily drives the engine contract over
// every cli engine plus part-tcam, bare and behind a flow cache: each
// engine's core.MemoryBits is its family's stored-bit model (a partitioned
// engine's is the sum over its parts, which hold every entry once; the
// behavioural TCAM is an extended one, 2·W ternary bits plus 64 bits of
// port bounds per rule, and the SRL16E model 2·W per entry), each
// core.Updater answers like the linear reference after a generated 8-op
// delta, and every other engine refuses with ErrDeltaUnsupported.
func TestApplyDeltasToEngineRoutesEveryFamily(t *testing.T) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 48, Profile: ruleset.PrefixOnly, Seed: 44, DefaultRule: true})
	ops, err := GenerateOps(rs, 8, 45)
	if err != nil {
		t.Fatal(err)
	}
	rules, entries, err := Deltas(ops)
	if err != nil {
		t.Fatal(err)
	}
	next, err := ApplyToRuleSet(rs, ops)
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	ne := rs.Expand().Len()
	strideBits := func(w, k int) int { return (w + k - 1) / k << k * ne }
	tcamBits := 2 * packet.W * ne
	extendedBits := (2*packet.W + 64) * rs.Len()
	want := map[string]struct {
		bits    int
		updates bool
	}{
		"stridebv":      {strideBits(packet.W, k), true},
		"fsbv":          {strideBits(packet.W, 1), true},
		"rangebv":       {strideBits(72, k) + 4*16*ne, false},
		"tcam":          {extendedBits, true},
		"tcam-fpga":     {tcamBits, true},
		"hicuts":        {0, false},
		"linear":        {0, false},
		"part-stridebv": {strideBits(packet.W, k), true},
		"part-tcam":     {extendedBits, true},
	}
	names := append(cli.EngineNames(), "part-tcam")
	if len(names) != len(want) {
		t.Fatalf("engines %v, want a case for each of %d", names, len(want))
	}
	trace := ruleset.GenerateTrace(next, ruleset.TraceConfig{Count: 300, MatchFraction: 0.8, Seed: 46})
	for _, name := range names {
		w, ok := want[name]
		if !ok {
			t.Fatalf("no expectation for engine %q", name)
		}
		// Band partitions keep every replacement on its rule's part; under
		// the prefix splitter a generated delta may move a rule across
		// parts, which is structural.
		bare, err := cli.BuildEngineOpts(rs, name, cli.Options{Stride: k, Splitter: "band", Partitions: 4})
		if err != nil {
			t.Fatal(err)
		}
		// A cached wrapper must be seen through.
		cached := core.NewCached(bare, flowcache.New(flowcache.Config{Entries: 64}))
		for _, eng := range []core.Engine{bare, cached} {
			if got := core.MemoryBits(eng); got != w.bits {
				t.Errorf("%s: MemoryBits = %d, want %d", eng.Name(), got, w.bits)
			}
			out, err := ApplyDeltasToEngine(eng, rules, entries)
			if !w.updates {
				if !errors.Is(err, ErrDeltaUnsupported) {
					t.Errorf("%s: error = %v, want ErrDeltaUnsupported", eng.Name(), err)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s: %v", eng.Name(), err)
				continue
			}
			for _, h := range trace {
				if got, want := out.Classify(h), next.FirstMatch(h); got != want {
					t.Errorf("%s: delta engine %d != linear %d for %s", eng.Name(), got, want, h)
					break
				}
			}
		}
	}
}

// TestVerifyDeltasScopedCatchesBadDelta injects the failure the scoped
// verify exists for: the engine applied a different delta than the ruleset
// records. The directed probes at the touched rule's regions must find the
// divergence.
func TestVerifyDeltasScopedCatchesBadDelta(t *testing.T) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 64, Profile: ruleset.PrefixOnly, Seed: 47, DefaultRule: true})
	ops, err := GenerateOps(rs, 4, 48)
	if err != nil {
		t.Fatal(err)
	}
	rules, entries, err := Deltas(ops)
	if err != nil {
		t.Fatal(err)
	}
	next, err := ApplyToRuleSet(rs, ops)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := stridebv.New(rs.Expand(), 4)
	if err != nil {
		t.Fatal(err)
	}
	good, err := eng.ApplyDeltas(rules, entries)
	if err != nil {
		t.Fatal(err)
	}
	if m := VerifyDeltasScoped(good, rs, next, rules, 16, 49); m != nil {
		t.Fatalf("clean delta flagged: %s", m)
	}
	// Corrupt one row: the engine stores a fully-specified entry matching
	// only the all-zero header, while the ruleset still records the real
	// replacement — the engine has effectively dropped the rule.
	var dead ruleset.Ternary
	for i := range dead.Mask {
		dead.Mask[i] = 0xFF
	}
	bad, err := eng.ApplyDeltas([]int{rules[0]}, []ruleset.Ternary{dead})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for seed := int64(50); seed < 58; seed++ {
		if m := VerifyDeltasScoped(bad, rs, next, rules, 16, seed); m != nil {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("scoped verify missed a corrupted delta across 8 seeds")
	}
}
