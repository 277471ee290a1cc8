package srl

import (
	"testing"
	"testing/quick"
)

func TestShiftRead(t *testing.T) {
	var s SRL16E
	s.Shift(true) // bit at addr 0
	if !s.Read(0) || s.Read(1) {
		t.Fatal("shift/read wrong after one shift")
	}
	s.Shift(false)
	// The 1 moved to address 1.
	if s.Read(0) || !s.Read(1) {
		t.Fatal("shift did not move bit")
	}
	for i := 0; i < 15; i++ {
		s.Shift(false)
	}
	// The 1 fell off the end.
	for a := uint8(0); a < 16; a++ {
		if s.Read(a) {
			t.Fatalf("bit survived 16 shifts at addr %d", a)
		}
	}
}

func TestReadOutOfRangePanics(t *testing.T) {
	var s SRL16E
	defer func() {
		if recover() == nil {
			t.Fatal("Read(16) did not panic")
		}
	}()
	s.Read(16)
}

func TestLoadTakes16Cycles(t *testing.T) {
	var s SRL16E
	if cycles := s.Load(0xBEEF); cycles != 16 {
		t.Fatalf("Load took %d cycles", cycles)
	}
	if s.bits != 0xBEEF {
		t.Fatalf("register = %04x", s.bits)
	}
	for a := uint8(0); a < 16; a++ {
		want := 0xBEEF>>a&1 == 1
		if s.Read(a) != want {
			t.Fatalf("Read(%d) = %v, want %v", a, s.Read(a), want)
		}
	}
}

func TestTernaryEncode(t *testing.T) {
	cases := []struct {
		value, mask, want uint8
	}{
		{0b00, 0b11, 0b0001}, // exact 00 -> only candidate 0
		{0b01, 0b11, 0b0010},
		{0b10, 0b11, 0b0100},
		{0b11, 0b11, 0b1000},
		{0b00, 0b00, 0b1111}, // fully masked -> all candidates
		{0b10, 0b10, 0b1100}, // high bit must be 1, low bit free -> {10,11}
		{0b01, 0b01, 0b1010}, // low bit must be 1 -> {01,11}
	}
	for _, c := range cases {
		if got := TernaryEncode(c.value, c.mask); got != c.want {
			t.Fatalf("TernaryEncode(%02b,%02b) = %04b, want %04b", c.value, c.mask, got, c.want)
		}
	}
}

func TestTruthTableExactPattern(t *testing.T) {
	// Stored exact pattern 10 (mask 11): table[addr]=1 iff addr bit 2 set.
	tbl := TruthTable(0b10, 0b11)
	for addr := 0; addr < 16; addr++ {
		want := addr>>2&1 == 1
		if (tbl>>uint(addr)&1 == 1) != want {
			t.Fatalf("table[%04b] wrong", addr)
		}
	}
	// Fully wildcard stored pattern: matches any non-empty candidate set.
	tbl = TruthTable(0, 0)
	for addr := 0; addr < 16; addr++ {
		want := addr != 0
		if (tbl>>uint(addr)&1 == 1) != want {
			t.Fatalf("wildcard table[%04b] wrong", addr)
		}
	}
}

// refMatch is the ground-truth ternary 2-bit match: intersection of the two
// ternary patterns' match sets is non-empty AND the search input actually
// matches the stored pattern for every fully-specified bit... For a binary
// search input it reduces to plain ternary matching.
func refMatch(storedV, storedM, searchV, searchM uint8) bool {
	for c := uint8(0); c < 4; c++ {
		if (c^storedV)&storedM == 0 && (c^searchV)&searchM == 0 {
			return true
		}
	}
	return false
}

func TestCellMatchesBinaryReference(t *testing.T) {
	for sv := uint8(0); sv < 4; sv++ {
		for sm := uint8(0); sm < 4; sm++ {
			var c Cell
			if cycles := c.Write(sv, sm); cycles != 16 {
				t.Fatalf("Write took %d cycles", cycles)
			}
			for in := uint8(0); in < 4; in++ {
				want := (in^sv)&sm == 0
				if got := c.MatchBinary(in); got != want {
					t.Fatalf("stored %02b/%02b input %02b: got %v want %v", sv, sm, in, got, want)
				}
			}
		}
	}
}

func TestQuickCellTernarySearch(t *testing.T) {
	f := func(sv, sm, qv, qm uint8) bool {
		sv, sm, qv, qm = sv&3, sm&3, qv&3, qm&3
		var c Cell
		c.Write(sv, sm)
		return c.Match(qv, qm) == refMatch(sv, sm, qv, qm)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCellRewrite(t *testing.T) {
	var c Cell
	c.Write(0b01, 0b11)
	if !c.MatchBinary(0b01) || c.MatchBinary(0b00) {
		t.Fatal("first write wrong")
	}
	c.Write(0b10, 0b11)
	if !c.MatchBinary(0b10) || c.MatchBinary(0b01) {
		t.Fatal("rewrite did not replace pattern")
	}
}

func BenchmarkCellMatch(b *testing.B) {
	var c Cell
	c.Write(0b10, 0b10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.MatchBinary(uint8(i) & 3)
	}
}
