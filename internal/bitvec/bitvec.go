// Package bitvec provides fixed-length bit vectors backed by []uint64 words.
//
// Bit vectors are the datapath type of bit-vector packet classification
// (FSBV, StrideBV): each vector has one bit per rule, bit i corresponds to
// rule index (priority) i, and classification reduces to bitwise AND of
// per-field (or per-stride) vectors followed by a first-set scan that is the
// software analogue of a hardware priority encoder.
//
// The representation is little-endian within the word array: bit i lives in
// word i/64 at position i%64. Trailing bits of the last word beyond Len are
// always kept zero, which lets Ones and FirstSet operate word-at-a-time
// without masking.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Vector is a fixed-length bit vector. The zero value is an empty vector of
// length 0; use New to create a sized vector.
type Vector struct {
	n     int
	words []uint64
}

// New returns a zeroed vector of n bits. n must be non-negative.
func New(n int) Vector {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative length %d", n))
	}
	return Vector{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// View returns an n-bit vector backed by words itself rather than a copy:
// writes through the view land in the caller's slice, and SharesStorage
// tells two views of one slice apart from copies. Structures that keep many
// vectors in one contiguous block (stridebv stage memory) hand out rows
// this way. words must be exactly the ceil(n/64) words New(n) would
// allocate, with no bit set at a position >= n.
func View(n int, words []uint64) Vector {
	if n < 0 || len(words) != (n+wordBits-1)/wordBits {
		panic(fmt.Sprintf("bitvec: %d words cannot back %d bits", len(words), n))
	}
	return Vector{n: n, words: words}
}

// Len returns the number of bits in the vector.
func (v Vector) Len() int { return v.n }

// Words exposes the backing words (aliased, not copied). The caller must not
// set bits at positions >= Len.
func (v Vector) Words() []uint64 { return v.words }

// SharesStorage reports whether v and o are views of the same backing word
// array. Copy-on-write structures (stridebv delta clones) use it to decide
// whether a vector must be copied before a mutation, and tests use it to
// prove untouched state stayed shared.
func (v Vector) SharesStorage(o Vector) bool {
	return len(v.words) > 0 && len(o.words) > 0 && &v.words[0] == &o.words[0]
}

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	w := Vector{n: v.n, words: make([]uint64, len(v.words))}
	copy(w.words, v.words)
	return w
}

// CopyFrom overwrites v with the bits of o without allocating. Lengths must
// match. This is the allocation-free alternative to Clone for callers that
// recycle a scratch vector across classifications.
//
//pclass:mutates
//pclass:hotpath
func (v Vector) CopyFrom(o Vector) {
	v.checkLen(o)
	copy(v.words, o.words)
}

// Set sets bit i to 1.
//
//pclass:mutates
func (v Vector) Set(i int) {
	v.check(i)
	v.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear sets bit i to 0.
//
//pclass:mutates
func (v Vector) Clear(i int) {
	v.check(i)
	v.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// SetTo sets bit i to b.
//
//pclass:mutates
func (v Vector) SetTo(i int, b bool) {
	if b {
		v.Set(i)
	} else {
		v.Clear(i)
	}
}

// Get reports whether bit i is set.
func (v Vector) Get(i int) bool {
	v.check(i)
	return v.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

func (v Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// AndWith computes v &= o in place.
//
//pclass:mutates
//pclass:hotpath
func (v Vector) AndWith(o Vector) {
	v.checkLen(o)
	for i := range v.words {
		v.words[i] &= o.words[i]
	}
}

func (v Vector) checkLen(o Vector) {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d != %d", v.n, o.n))
	}
}

// FirstSet returns the index of the lowest set bit, or -1 if the vector is
// all zeros. The lowest index is the highest-priority rule, so FirstSet is
// the software analogue of the priority encoder at the end of the StrideBV
// pipeline and inside a TCAM.
//
//pclass:hotpath
func (v Vector) FirstSet() int {
	for i, w := range v.words {
		if w != 0 {
			return i*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// NextSet returns the index of the lowest set bit >= from, or -1.
//
//pclass:hotpath
func (v Vector) NextSet(from int) int {
	if from < 0 {
		from = 0
	}
	if from >= v.n {
		return -1
	}
	wi := from / wordBits
	w := v.words[wi] >> uint(from%wordBits)
	if w != 0 {
		return from + bits.TrailingZeros64(w)
	}
	for i := wi + 1; i < len(v.words); i++ {
		if v.words[i] != 0 {
			return i*wordBits + bits.TrailingZeros64(v.words[i])
		}
	}
	return -1
}

// Ones returns the number of set bits.
func (v Vector) Ones() int {
	total := 0
	for _, w := range v.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// IsZero reports whether no bit is set.
func (v Vector) IsZero() bool {
	for _, w := range v.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether v and o have identical length and bits.
func (v Vector) Equal(o Vector) bool {
	if v.n != o.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// SetBits returns the indices of all set bits in ascending order
// (highest-priority first). This is the multi-match result used by IDS-style
// classification where every matching rule must be reported.
func (v Vector) SetBits() []int {
	out := make([]int, 0, v.Ones())
	for i, w := range v.words {
		for w != 0 {
			out = append(out, i*wordBits+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return out
}

// String renders the vector MSB-last ("1011…" with bit 0 first), matching
// the rule-index order used throughout the paper's figures.
func (v Vector) String() string {
	var b strings.Builder
	b.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}
