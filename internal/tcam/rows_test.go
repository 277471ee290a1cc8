package tcam

import (
	"math/rand"
	"slices"
	"testing"

	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
)

func randomKey(rng *rand.Rand) packet.Key {
	var k packet.Key
	rng.Read(k[:])
	return k
}

// flipBit returns k with bit i (0 = SIP MSB) inverted.
func flipBit(k packet.Key, i int) packet.Key {
	k[i>>3] ^= 0x80 >> uint(i&7)
	return k
}

// TestRowMatchEqualsMatchesKey is the packed row's contract: for any
// ternary word and any key, the two-word compare answers exactly like the
// byte-level oracle ruleset.Ternary.MatchesKey. Random ternaries (including
// values with bits set under wildcard positions, which packRow must mask
// off) meet random keys and keys built to sit on the layout's edges: the
// ternary's own value, and that value with only bit 63 (hi's last), 64
// (lo's first), 103 (the final tuple bit) or a mid-word bit flipped.
func TestRowMatchEqualsMatchesKey(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	full := packet.Key{}
	for i := range full {
		full[i] = 0xff
	}
	ternaries := []ruleset.Ternary{
		{},                          // all-wildcard
		{Mask: full},                // full mask, value 0
		{Value: full, Mask: full},   // full mask, value all-ones
		{Value: full},               // value bits under an all-wildcard mask
		ruleset.InvalidTernary(),    // disabled
		{Mask: full, Invalid: true}, // disabled with a live-looking pattern
	}
	for i := 0; i < 300; i++ {
		e := ruleset.Ternary{Value: randomKey(rng), Mask: randomKey(rng)}
		switch i % 3 {
		case 1: // sparse mask: most keys match
			for b := range e.Mask {
				e.Mask[b] &= randomKey(rng)[b] & randomKey(rng)[b]
			}
		case 2: // a single cared-about bit, sweeping every position
			e.Mask = flipBit(packet.Key{}, i%packet.W)
		}
		ternaries = append(ternaries, e)
	}
	for _, e := range ternaries {
		r := packRow(e)
		keys := []packet.Key{{}, full, e.Value}
		for _, bit := range []int{0, 31, 32, 63, 64, 79, 80, 95, 96, 103} {
			keys = append(keys, flipBit(e.Value, bit))
		}
		for i := 0; i < 20; i++ {
			keys = append(keys, randomKey(rng))
		}
		for _, k := range keys {
			if got, want := r.matches(k.Words()), e.MatchesKey(k); got != want {
				t.Fatalf("row %+v matches key %v = %v, MatchesKey(%s) = %v", r, k, got, e, want)
			}
		}
	}
}

// TestBehavioralApplyDeltasCopyOnWrite pins the storage side of ApplyDeltas:
// the receiver's row and bounds tables are bit-identical afterwards, the
// child has its own copies of both, and exactly the touched rows differ,
// each rewritten from its entry's lowering.
func TestBehavioralApplyDeltasCopyOnWrite(t *testing.T) {
	_, ex, _, rules, entries := tcamDeltaFixture(t, 64, 10, 43)
	eng := NewBehavioral(ex)
	rowsBefore, boundsBefore := slices.Clone(eng.rows), slices.Clone(eng.bounds)
	out, err := eng.ApplyDeltas(rules, entries)
	if err != nil {
		t.Fatal(err)
	}
	child := out.(*Behavioral)
	if !slices.Equal(eng.rows, rowsBefore) || !slices.Equal(eng.bounds, boundsBefore) {
		t.Fatal("ApplyDeltas changed the receiver's tables")
	}
	if &child.rows[0] == &eng.rows[0] || &child.bounds[0] == &eng.bounds[0] {
		t.Fatal("child shares the receiver's row or bounds table")
	}
	touched := map[int]ruleset.Ternary{}
	for i, j := range rules {
		touched[j] = entries[i] // later deltas win
	}
	for j := range child.rows {
		wantRow, wantBounds := eng.rows[j], eng.bounds[j]
		e, ok := touched[j]
		if ok {
			x := ruleset.LowerEntry(e)
			wantRow, wantBounds = packRow(x.Cover), packBounds(&x)
		}
		if child.rows[j] != wantRow || child.bounds[j] != wantBounds {
			t.Fatalf("row %d (touched: %v) = %+v %+v, want %+v %+v", j, ok, child.rows[j], child.bounds[j], wantRow, wantBounds)
		}
	}
}

// TestBehavioralInvalidateThenRevive walks one row through the valid-bit
// encoding: an InvalidTernary delta makes the row match nothing (the winner
// moves to the next matching rule), and a later delta restoring the entry
// brings the original answers back.
func TestBehavioralInvalidateThenRevive(t *testing.T) {
	rs, ex := genSet(t, 32, ruleset.PrefixOnly, 45)
	eng := NewBehavioral(ex)
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 400, MatchFraction: 1, Seed: 46})
	victim := eng.Classify(trace[0])
	if victim < 0 {
		t.Fatal("directed header matched nothing")
	}
	out, err := eng.ApplyDeltas([]int{victim}, []ruleset.Ternary{ruleset.InvalidTernary()})
	if err != nil {
		t.Fatal(err)
	}
	dead := out.(*Behavioral)
	next := ruleset.New(append(append([]ruleset.Rule(nil), rs.Rules[:victim]...), rs.Rules[victim+1:]...))
	for _, h := range trace {
		want := next.FirstMatch(h)
		if want >= victim {
			want++ // next has the victim removed; the TCAM keeps its slot
		}
		if got := dead.Classify(h); got != want {
			t.Fatalf("invalidated row %d: Classify = %d, want %d for %s", victim, got, want, h)
		}
		if dead.MatchVector(h.Key())[victim] {
			t.Fatalf("invalidated row %d still raises its match line for %s", victim, h)
		}
	}
	out, err = dead.ApplyDeltas([]int{victim}, []ruleset.Ternary{ex.Entries[victim]})
	if err != nil {
		t.Fatal(err)
	}
	alive := out.(*Behavioral)
	if !slices.Equal(alive.rows, eng.rows) || !slices.Equal(alive.bounds, eng.bounds) {
		t.Fatal("revived table differs from the original")
	}
	for _, h := range trace {
		if got, want := alive.Classify(h), rs.FirstMatch(h); got != want {
			t.Fatalf("revived row %d: Classify = %d, want %d for %s", victim, got, want, h)
		}
	}
}

// TestBehavioralBatchZeroAlloc is tier-1's copy of CI's BenchmarkTCAMBatch
// allocs gate: the batch path reads the row table and writes out, nothing
// else.
func TestBehavioralBatchZeroAlloc(t *testing.T) {
	rs, ex := genSet(t, 512, ruleset.FirewallProfile, 47)
	eng := NewBehavioral(ex)
	trace := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 256, MatchFraction: 0.9, Seed: 48})
	out := make([]int, len(trace))
	if avg := testing.AllocsPerRun(20, func() { eng.ClassifyBatch(trace, out) }); avg != 0 {
		t.Fatalf("ClassifyBatch allocates %.1f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(20, func() { eng.Classify(trace[0]) }); avg != 0 {
		t.Fatalf("Classify allocates %.1f allocs/op, want 0", avg)
	}
}
