package stridebv

import (
	"encoding/binary"
	"fmt"
	"io"

	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
)

// Engine image serialization — the software analogue of a configuration
// bitstream. A built engine's stage memories (plus the parent map needed
// to resolve entry matches to rules) can be written once and reloaded
// without re-running ternary expansion and table construction, which for
// large rulesets dominates bring-up time.
//
// Format (little endian):
//
//	magic "SBV1" | k u16 | stages u16 | ne u32 | numRules u32
//	parent[ne] u32
//	for each stage, for each of 2^k values: ne-bit vector, padded to
//	8-byte words.

const imageMagic = "SBV1"

// WriteImage serializes the engine.
func (e *Engine) WriteImage(w io.Writer) error {
	hdr := make([]byte, 16)
	copy(hdr, imageMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], uint16(e.k))
	binary.LittleEndian.PutUint16(hdr[6:8], uint16(e.stages))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(e.ne))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(e.ex.NumRules))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	buf := make([]byte, 4)
	for _, p := range e.ex.Parent {
		binary.LittleEndian.PutUint32(buf, uint32(p))
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	row := make([]byte, 8*e.words)
	for _, blk := range e.blk {
		for ; len(blk) > 0; blk = blk[e.words:] {
			for i, wv := range blk[:e.words] {
				binary.LittleEndian.PutUint64(row[8*i:], wv)
			}
			if _, err := w.Write(row); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadImage reconstructs an engine from a serialized image. The loaded
// engine classifies identically to the original; the ternary entry list is
// not retained (the table is zero-filled). UpdateEntry and ApplyDeltas still
// work: a rewrite re-derives only the dirty entries' bits and keeps every
// other bit as stored, and the entry passed in becomes the stored truth.
func ReadImage(r io.Reader) (*Engine, error) {
	hdr := make([]byte, 16)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("stridebv: short image header: %w", err)
	}
	if string(hdr[:4]) != imageMagic {
		return nil, fmt.Errorf("stridebv: bad image magic %q", hdr[:4])
	}
	k := int(binary.LittleEndian.Uint16(hdr[4:6]))
	stages := int(binary.LittleEndian.Uint16(hdr[6:8]))
	ne := int(binary.LittleEndian.Uint32(hdr[8:12]))
	numRules := int(binary.LittleEndian.Uint32(hdr[12:16]))
	if k < MinStride || k > MaxStride {
		return nil, fmt.Errorf("stridebv: image stride %d invalid", k)
	}
	if stages != packet.NumStrides(k) {
		return nil, fmt.Errorf("stridebv: image stages %d != %d for k=%d", stages, packet.NumStrides(k), k)
	}
	const maxEntries = 1 << 24
	if ne < 1 || ne > maxEntries || numRules < 1 || numRules > ne {
		return nil, fmt.Errorf("stridebv: image geometry ne=%d rules=%d invalid", ne, numRules)
	}
	ex := &ruleset.Expanded{
		Entries:  make([]ruleset.Ternary, ne),
		Parent:   make([]int, ne),
		NumRules: numRules,
	}
	buf := make([]byte, 4)
	for i := 0; i < ne; i++ {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("stridebv: truncated parent table: %w", err)
		}
		p := int(binary.LittleEndian.Uint32(buf))
		if p < 0 || p >= numRules {
			return nil, fmt.Errorf("stridebv: parent %d out of range", p)
		}
		//pclass:allow-mutate filling a freshly decoded, not-yet-shared expansion
		ex.Parent[i] = p
	}
	e := &Engine{Memory: newMemory(packet.W, k, ne), ex: ex}
	// Tail-word hygiene: stored images must not set bits past ne (a
	// corrupt tail would let the walker return an out-of-range entry).
	tail := uint(ne % 64)
	row := make([]byte, 8*e.words)
	blks := e.makeBlocks()
	for _, blk := range blks {
		for ; len(blk) > 0; blk = blk[e.words:] {
			if _, err := io.ReadFull(r, row); err != nil {
				return nil, fmt.Errorf("stridebv: truncated stage memory: %w", err)
			}
			for i := range blk[:e.words] {
				blk[i] = binary.LittleEndian.Uint64(row[8*i:])
			}
			if tail != 0 && blk[e.words-1]>>tail != 0 {
				return nil, fmt.Errorf("stridebv: image has bits beyond ne")
			}
		}
	}
	e.blk = blks
	e.RefreshSummaries()
	return e, nil
}
