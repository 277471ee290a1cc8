package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 2048} {
		v := New(n)
		if v.Len() != n {
			t.Fatalf("Len = %d, want %d", v.Len(), n)
		}
		if v.Ones() != 0 {
			t.Fatalf("new vector of %d bits has %d ones", n, v.Ones())
		}
		if !v.IsZero() {
			t.Fatalf("new vector of %d bits not zero", n)
		}
		if got := v.FirstSet(); got != -1 {
			t.Fatalf("FirstSet on zero vector = %d, want -1", got)
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetGetClear(t *testing.T) {
	v := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if v.Get(i) {
			t.Fatalf("bit %d set before Set", i)
		}
		v.Set(i)
		if !v.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
		v.Clear(i)
		if v.Get(i) {
			t.Fatalf("bit %d set after Clear", i)
		}
	}
}

func TestSetTo(t *testing.T) {
	v := New(10)
	v.SetTo(3, true)
	v.SetTo(4, false)
	if !v.Get(3) || v.Get(4) {
		t.Fatalf("SetTo wrong: %s", v)
	}
	v.SetTo(3, false)
	if v.Get(3) {
		t.Fatal("SetTo(3,false) did not clear")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	v := New(64)
	for _, i := range []int{-1, 64, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Get(%d) did not panic", i)
				}
			}()
			v.Get(i)
		}()
	}
}

func randVector(n int, rng *rand.Rand) Vector {
	v := New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 1 {
			v.Set(i)
		}
	}
	return v
}

// and returns a fresh a AND b, leaving both operands alone.
func and(a, b Vector) Vector {
	c := a.Clone()
	c.AndWith(b)
	return c
}

func TestAndSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		a, b := randVector(n, rng), randVector(n, rng)
		c := and(a, b)
		for i := 0; i < n; i++ {
			want := a.Get(i) && b.Get(i)
			if c.Get(i) != want {
				t.Fatalf("n=%d bit %d: got %v want %v", n, i, c.Get(i), want)
			}
		}
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AndWith with mismatched lengths did not panic")
		}
	}()
	New(10).AndWith(New(11))
}

func TestFirstSetMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(400)
		v := New(n)
		// Sparse fill so FirstSet varies across word boundaries.
		for i := 0; i < n; i++ {
			if rng.Intn(50) == 0 {
				v.Set(i)
			}
		}
		naive := -1
		for i := 0; i < n; i++ {
			if v.Get(i) {
				naive = i
				break
			}
		}
		if got := v.FirstSet(); got != naive {
			t.Fatalf("FirstSet = %d, naive = %d (v=%s)", got, naive, v)
		}
	}
}

func TestNextSet(t *testing.T) {
	v := New(200)
	for _, i := range []int{0, 5, 63, 64, 130, 199} {
		v.Set(i)
	}
	want := []int{0, 5, 63, 64, 130, 199}
	got := []int{}
	for i := v.NextSet(0); i != -1; i = v.NextSet(i + 1) {
		got = append(got, i)
	}
	if len(got) != len(want) {
		t.Fatalf("NextSet walk = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NextSet walk = %v, want %v", got, want)
		}
	}
	if v.NextSet(-5) != 0 {
		t.Fatal("NextSet(-5) != 0")
	}
	if v.NextSet(200) != -1 {
		t.Fatal("NextSet(200) != -1")
	}
	if v.NextSet(131) != 199 {
		t.Fatalf("NextSet(131) = %d", v.NextSet(131))
	}
}

func TestSetBitsMultiMatchOrder(t *testing.T) {
	v := New(300)
	idx := []int{7, 64, 65, 128, 255, 299}
	for _, i := range idx {
		v.Set(i)
	}
	got := v.SetBits()
	if len(got) != len(idx) {
		t.Fatalf("SetBits = %v", got)
	}
	for i := range idx {
		if got[i] != idx[i] {
			t.Fatalf("SetBits = %v, want %v", got, idx)
		}
	}
}

// String renders bit i as character i, so reading the characters back
// recovers the vector.
func TestStringRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		v := randVector(1+rng.Intn(150), rng)
		str := v.String()
		if len(str) != v.Len() {
			t.Fatalf("String has %d characters for %d bits", len(str), v.Len())
		}
		for i := range str {
			if str[i] != '0' && str[i] != '1' || (str[i] == '1') != v.Get(i) {
				t.Fatalf("character %d of %q disagrees with bit %v", i, str, v.Get(i))
			}
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	a := New(70)
	a.Set(0)
	b := a.Clone()
	b.Clear(0)
	if !a.Get(0) {
		t.Fatal("Clone shares storage with original")
	}
}

func TestEqual(t *testing.T) {
	a, b := New(65), New(65)
	if !a.Equal(b) {
		t.Fatal("two zero vectors unequal")
	}
	b.Set(64)
	if a.Equal(b) {
		t.Fatal("different vectors equal")
	}
	if a.Equal(New(64)) {
		t.Fatal("different lengths equal")
	}
}

// quickVec adapts Vector generation for testing/quick via a word seed.
type quickVec struct {
	Seed int64
	N    uint16
}

func (q quickVec) vector() Vector {
	n := int(q.N%1024) + 1
	return randVector(n, rand.New(rand.NewSource(q.Seed)))
}

func TestQuickAndCommutative(t *testing.T) {
	f := func(q quickVec, seed2 int64) bool {
		a := q.vector()
		b := randVector(a.Len(), rand.New(rand.NewSource(seed2)))
		return and(a, b).Equal(and(b, a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAndAssociativeIdempotent(t *testing.T) {
	f := func(q quickVec, s2, s3 int64) bool {
		a := q.vector()
		rng2 := rand.New(rand.NewSource(s2))
		rng3 := rand.New(rand.NewSource(s3))
		b := randVector(a.Len(), rng2)
		c := randVector(a.Len(), rng3)
		assoc := and(and(a, b), c).Equal(and(a, and(b, c)))
		idem := and(a, a).Equal(a)
		return assoc && idem
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFirstSetIsMinimumOfSetBits(t *testing.T) {
	f := func(q quickVec) bool {
		v := q.vector()
		bits := v.SetBits()
		fs := v.FirstSet()
		if len(bits) == 0 {
			return fs == -1
		}
		if fs != bits[0] {
			return false
		}
		if v.Ones() != len(bits) {
			return false
		}
		for i := 1; i < len(bits); i++ {
			if bits[i] <= bits[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAndWith2048(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randVector(2048, rng)
	y := randVector(2048, rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.AndWith(y)
	}
}

func BenchmarkFirstSet2048(b *testing.B) {
	v := New(2048)
	v.Set(2000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if v.FirstSet() != 2000 {
			b.Fatal("wrong result")
		}
	}
}

// A View is backed by the caller's words: writes go both ways, two views of
// one row share storage, views of neighbouring rows of one block and
// clones do not, and a word count that cannot back n bits is rejected.
func TestViewAliasesCallerWords(t *testing.T) {
	const n = 70 // two words per row
	block := make([]uint64, 4)
	row0, row1 := View(n, block[0:2]), View(n, block[2:4])
	row0.Set(69)
	if block[1] != 1<<5 {
		t.Fatalf("write through the view missed the block: %#x", block[1])
	}
	block[2] = 1
	if !row1.Get(0) || row1.FirstSet() != 0 || row1.Len() != n {
		t.Fatal("view does not read the caller's words")
	}
	if !row0.SharesStorage(View(n, block[0:2])) {
		t.Fatal("two views of one row must share storage")
	}
	if row0.SharesStorage(row1) || row0.SharesStorage(row0.Clone()) {
		t.Fatal("a neighbouring row or a clone must not share storage")
	}
	// A view is a full Vector: the kernels work on it against a New one.
	acc := New(n)
	for i := 0; i < n; i++ {
		acc.Set(i)
	}
	acc.AndWith(row0)
	if acc.Ones() != 1 || acc.FirstSet() != 69 {
		t.Fatalf("AndWith over a view: %s", acc)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("View accepted one word for 70 bits")
		}
	}()
	View(n, block[:1])
}
