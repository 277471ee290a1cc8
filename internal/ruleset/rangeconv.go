package ruleset

import mathbits "math/bits"

// Range-to-prefix conversion.
//
// An arbitrary inclusive range over a w-bit field splits into at most
// 2(w-1) prefixes (the paper's Section II bound). The standard recursive
// construction walks the implicit binary trie: a node whose span lies fully
// inside the range emits one prefix; a node that partially overlaps recurses
// into both children.

// Prefixes returns the minimal ordered prefix cover of the range, most
// significant (widest) spans first in address order.
func (r PortRange) Prefixes() []Prefix {
	return rangeToPrefixes(uint32(r.Lo), uint32(r.Hi), 16)
}

// rangeToPrefixes computes the minimal prefix cover of [lo,hi] over a
// bits-wide field.
func rangeToPrefixes(lo, hi uint32, bits int) []Prefix {
	var out []Prefix
	for c := newPrefixCover(lo, hi, bits); c.next(); {
		out = append(out, c.prefix)
	}
	return out
}

// prefixCover walks the minimal prefix cover of an inclusive range in
// address order without storing it, using the greedy largest-aligned-block
// construction, which is equivalent to the trie walk: after each successful
// next, prefix is the next block of the cover.
type prefixCover struct {
	prefix Prefix
	lo, hi uint64 // what is left to cover; nothing once lo > hi
}

// newPrefixCover starts the cover of [lo,hi] over a bits-wide field; an
// inverted range has an empty cover.
func newPrefixCover(lo, hi uint32, bits int) prefixCover {
	return prefixCover{prefix: Prefix{Bits: bits}, lo: uint64(lo), hi: uint64(hi)}
}

// cover starts the walk over the port range's prefix cover (see Prefixes).
func (r PortRange) cover() prefixCover { return newPrefixCover(uint32(r.Lo), uint32(r.Hi), 16) }

func (c *prefixCover) next() bool {
	if c.lo > c.hi {
		return false
	}
	// The largest block 2^t that is aligned at lo, no wider than the field
	// and still inside the range.
	t := min(c.prefix.Bits, mathbits.TrailingZeros64(c.lo), mathbits.Len64(c.hi-c.lo+1)-1)
	c.prefix.Value, c.prefix.Len = uint32(c.lo), c.prefix.Bits-t
	c.lo += 1 << uint(t)
	return true
}

// len counts the blocks of the cover c has not walked yet.
func (c prefixCover) len() int {
	n := 0
	for c.next() {
		n++
	}
	return n
}
