package genbv

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randTernary(rng *rand.Rand, bytes int) Ternary {
	v := make([]byte, bytes)
	m := make([]byte, bytes)
	rng.Read(v)
	rng.Read(m)
	// Sparse masks so matches actually occur.
	for i := range m {
		m[i] &= byte(rng.Intn(256)) & byte(rng.Intn(256))
		v[i] &= m[i]
	}
	t, err := NewTernary(v, m)
	if err != nil {
		panic(err)
	}
	return t
}

func TestNewValidation(t *testing.T) {
	if _, err := NewTernary([]byte{1}, []byte{1, 2}); err == nil {
		t.Fatal("accepted mismatched lengths")
	}
	e := []Ternary{{Value: []byte{0}, Mask: []byte{0}}}
	if _, err := New(e, 0, 3); err == nil {
		t.Fatal("accepted zero width")
	}
	if _, err := New(e, 8, 0); err == nil {
		t.Fatal("accepted stride 0")
	}
	if _, err := New(e, 8, 9); err == nil {
		t.Fatal("accepted stride 9")
	}
	if _, err := New(nil, 8, 3); err == nil {
		t.Fatal("accepted empty entries")
	}
	if _, err := New(e, 24, 3); err == nil {
		t.Fatal("accepted wrong entry width")
	}
}

// A mask bit at a position >= wBits has no stage to live in: the engine
// would ignore it while the byte-level TCAM compares it (key {0xAB,0x08}:
// engine 0, TCAM -1), so New rejects the entry. A value bit there is
// harmless — nothing cares about it.
func TestNewRejectsCareBitsPastWidth(t *testing.T) {
	past := []Ternary{{Value: []byte{0x00, 0x01}, Mask: []byte{0x00, 0x01}}}
	if _, err := New(past, 13, 4); err == nil {
		t.Fatal("accepted a care bit at position 15 of a 13-bit pattern")
	}
	if _, err := New(past, 16, 4); err != nil {
		t.Fatalf("rejected the same pattern at width 16: %v", err)
	}
	last := []Ternary{{Value: []byte{0x00, 0x0F}, Mask: []byte{0x00, 0x08}}}
	eng, err := New(last, 13, 4)
	if err != nil {
		t.Fatalf("rejected a care bit at position 12 of a 13-bit pattern: %v", err)
	}
	for key, want := range map[[2]byte]int{{0xAB, 0x08}: 0, {0xAB, 0x0F}: 0, {0xAB, 0x07}: -1} {
		if got, _ := eng.Classify(key[:]); got != want || NewTCAM(last, 13).Classify(key[:]) != want {
			t.Fatalf("key % x: engine %d, want %d", key, got, want)
		}
	}
}

func TestClassifyRejectsWrongKeyWidth(t *testing.T) {
	entries := []Ternary{{Value: make([]byte, 4), Mask: make([]byte, 4)}}
	eng, err := New(entries, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Classify(make([]byte, 5)); err == nil {
		t.Fatal("accepted oversized key")
	}
	if _, err := eng.Classify(make([]byte, 3)); err == nil {
		t.Fatal("accepted undersized key")
	}
}

func TestTCAMMemory(t *testing.T) {
	entries := []Ternary{
		{Value: make([]byte, 2), Mask: make([]byte, 2)},
		{Value: make([]byte, 2), Mask: make([]byte, 2)},
	}
	// 2·W·Ne from the real width, not from whole bytes.
	for _, w := range []int{13, 16} {
		if got := NewTCAM(entries, w).MemoryBits(); got != 2*w*2 {
			t.Fatalf("W=%d: MemoryBits = %d", w, got)
		}
	}
	if NewTCAM(nil, 256).MemoryBits() != 0 {
		t.Fatal("empty TCAM has memory")
	}
}

func TestQuickWidth104MatchesSemantics(t *testing.T) {
	// At W=104 the generic engine must agree with direct ternary
	// evaluation (the property the 5-tuple engines rely on).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		entries := make([]Ternary, 10)
		for i := range entries {
			entries[i] = randTernary(rng, 13)
		}
		eng, err := New(entries, 104, 4)
		if err != nil {
			return false
		}
		for probe := 0; probe < 20; probe++ {
			key := make([]byte, 13)
			rng.Read(key)
			want := -1
			for i, e := range entries {
				if e.Matches(key) {
					want = i
					break
				}
			}
			got, err := eng.Classify(key)
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGenericClassify256b(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	entries := make([]Ternary, 512)
	for i := range entries {
		entries[i] = randTernary(rng, 32)
	}
	eng, err := New(entries, 256, 4)
	if err != nil {
		b.Fatal(err)
	}
	key := make([]byte, 32)
	rng.Read(key)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Classify(key); err != nil {
			b.Fatal(err)
		}
	}
}
