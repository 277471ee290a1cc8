// Package srl models the Xilinx SRL16E primitive — a LUT configured as a
// 16-bit shift register with asynchronous 4-bit-addressed read — and the
// ternary CAM cell built from it, following the scheme the paper's Section
// IV-B describes (one SRL16E implements a 2-ternary-bit by 1-entry TCAM).
//
// Write path: the cell's 16-entry truth table is shifted in over 16 clock
// cycles (MSB-address entry first), which is why TCAM entry updates on FPGA
// cost 16 cycles.
//
// Search path: a ternary encoder converts the 2 search bits (+ optional
// search mask) into 4 indicator bits A,B,C,D — bit c says "stored binary
// pattern c could match the search input". ABCD address the SRL16E, whose
// stored truth table answers whether the cell's stored ternary pattern
// intersects that candidate set.
package srl

import "fmt"

// SRL16E is the 16×1 shift-register LUT primitive.
type SRL16E struct {
	bits uint16
}

// Shift clocks the register once with data input d and clock enable high.
// The new bit enters at address 0; all others move one position up; the bit
// at address 15 is discarded.
func (s *SRL16E) Shift(d bool) {
	s.bits <<= 1
	if d {
		s.bits |= 1
	}
}

// Read returns the bit at the 4-bit address (asynchronous read). Address 0
// is the most recently shifted bit.
func (s *SRL16E) Read(addr uint8) bool {
	if addr > 15 {
		panic(fmt.Sprintf("srl: address %d out of range", addr))
	}
	return s.bits>>addr&1 == 1
}

// Load shifts in a full 16-bit pattern over 16 cycles such that
// Read(a) == pattern bit a afterwards. It returns the number of clock
// cycles consumed (always 16), mirroring the hardware write cost.
func (s *SRL16E) Load(pattern uint16) int {
	for i := 15; i >= 0; i-- {
		s.Shift(pattern>>uint(i)&1 == 1)
	}
	return 16
}

// TernaryEncode converts a 2-bit search value with a 2-bit care mask into
// the 4 indicator bits used to address a cell. Bit c of the result (c in
// 0..3) is set iff the binary pattern c is compatible with the search input:
// every cared-about input bit equals the corresponding bit of c. A fully
// masked input (mask 0) yields 0b1111; a fully specified input yields the
// one-hot of its value. Mask bit semantics follow the paper: mask 1 means
// the bit value matters.
func TernaryEncode(value, mask uint8) uint8 {
	value &= 3
	mask &= 3
	var out uint8
	for c := uint8(0); c < 4; c++ {
		if (c^value)&mask == 0 {
			out |= 1 << c
		}
	}
	return out
}

// TruthTable computes the 16-entry table a cell must store for a 2-bit
// ternary pattern (storedValue under storedMask; mask bit 1 = care).
// Entry at address a (a = the ABCD indicator bits) is 1 iff the stored
// pattern's match set intersects the candidate set a encodes.
func TruthTable(storedValue, storedMask uint8) uint16 {
	storedValue &= 3
	storedMask &= 3
	var tbl uint16
	for addr := 0; addr < 16; addr++ {
		for c := uint8(0); c < 4; c++ {
			if addr>>c&1 == 1 && (c^storedValue)&storedMask == 0 {
				tbl |= 1 << uint(addr)
				break
			}
		}
	}
	return tbl
}

// Cell is one 2-ternary-bit TCAM cell: an SRL16E plus its write logic.
type Cell struct {
	srl SRL16E
}

// Write programs the cell with a 2-bit ternary pattern, consuming 16 cycles.
func (c *Cell) Write(storedValue, storedMask uint8) int {
	return c.srl.Load(TruthTable(storedValue, storedMask))
}

// Match searches the cell with a (possibly ternary) 2-bit input.
func (c *Cell) Match(value, mask uint8) bool {
	return c.srl.Read(TernaryEncode(value, mask))
}

// MatchBinary searches with a fully specified 2-bit input.
func (c *Cell) MatchBinary(value uint8) bool { return c.Match(value, 3) }
