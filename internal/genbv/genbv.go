// Package genbv generalizes the StrideBV and TCAM engines to arbitrary
// key widths. The paper's engines are hard-wired to the 104-bit 5-tuple;
// its Section II-A notes that OpenFlow-style classification inspects 12+
// fields, i.e. much wider keys. Ruleset-feature independence carries over
// unchanged: memory is ceil(W/k)·2^k·Ne bits for StrideBV and 2·W·Ne for
// TCAM, whatever the fields mean. Engine is a front end of stridebv.Memory —
// the same stage memory and word walker the 5-tuple engines use — and TCAM
// is the byte-level linear reference it is tested against.
//
// Keys and ternary patterns are big-endian byte strings: bit i of a key is
// bit 7-i%8 of byte i/8, matching internal/packet's layout so the 104-bit
// engines are the special case W=104.
package genbv

import (
	"fmt"

	"pktclass/internal/stridebv"
)

// Ternary is a W-bit ternary pattern over byte strings.
type Ternary struct {
	Value []byte
	Mask  []byte // bit 1 = care
}

// NewTernary validates and wraps a value/mask pair.
func NewTernary(value, mask []byte) (Ternary, error) {
	if len(value) != len(mask) {
		return Ternary{}, fmt.Errorf("genbv: value %d bytes, mask %d bytes", len(value), len(mask))
	}
	return Ternary{Value: value, Mask: mask}, nil
}

// Matches reports whether the key matches the pattern.
func (t Ternary) Matches(key []byte) bool {
	if len(key) != len(t.Value) {
		return false
	}
	for i := range key {
		if (key[i]^t.Value[i])&t.Mask[i] != 0 {
			return false
		}
	}
	return true
}

// Engine is the width-generic StrideBV classifier: stridebv's stage memory
// at W = wBits, addressed by byte-string keys. Width, Stages, NumEntries and
// MemoryBits (ceil(W/k)·2^k·Ne) are the memory's own.
type Engine struct {
	stridebv.Memory
}

// New builds a stride-k engine over Ne ternary entries of wBits bits. An
// entry must be ceil(wBits/8) bytes and care about no bit past wBits.
func New(entries []Ternary, wBits, k int) (*Engine, error) {
	wantBytes := (wBits + 7) / 8
	// The first malformed entry; it and everything after it program nothing.
	var bad error
	m, err := stridebv.BuildMemory(wBits, k, len(entries), func(i int) ([]byte, []byte, bool) {
		t := entries[i]
		switch {
		case bad != nil:
		case len(t.Value) != wantBytes || len(t.Mask) != wantBytes:
			bad = fmt.Errorf("genbv: entry %d has %d bytes, want %d", i, len(t.Value), wantBytes)
		case t.Mask[wantBytes-1]&(byte(1)<<uint(wantBytes*8-wBits)-1) != 0:
			bad = fmt.Errorf("genbv: entry %d cares about bits past width %d", i, wBits)
		}
		return t.Value, t.Mask, bad == nil
	})
	if err != nil {
		return nil, fmt.Errorf("genbv: %w", err)
	}
	if bad != nil {
		return nil, bad
	}
	return &Engine{m}, nil
}

// checkKey rejects a key that is not ceil(W/8) bytes.
func (e *Engine) checkKey(key []byte) error {
	if want := (e.Width() + 7) / 8; len(key) != want {
		return fmt.Errorf("genbv: key %d bytes, want %d", len(key), want)
	}
	return nil
}

// Classify returns the first matching entry index, or -1. Key bits past W
// in the last byte are ignored.
func (e *Engine) Classify(key []byte) (int, error) {
	if err := e.checkKey(key); err != nil {
		return -1, err
	}
	return e.First(key), nil
}

// TCAM is the width-generic linear ternary search, the byte-level reference
// for the generic engine.
type TCAM struct {
	entries []Ternary
	wBits   int
}

// NewTCAM wraps the entries, each a wBits-bit pattern.
func NewTCAM(entries []Ternary, wBits int) *TCAM { return &TCAM{entries: entries, wBits: wBits} }

// Classify returns the first matching entry index, or -1.
func (t *TCAM) Classify(key []byte) int {
	for i, e := range t.entries {
		if e.Matches(key) {
			return i
		}
	}
	return -1
}

// MemoryBits returns 2·W·Ne: a value and a mask bit per key bit per entry.
func (t *TCAM) MemoryBits() int { return 2 * t.wBits * len(t.entries) }
