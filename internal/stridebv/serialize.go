package stridebv

import (
	"encoding/binary"
	"io"
)

// Engine image serialization — the software analogue of a configuration
// bitstream. A built engine's stage memories, plus the parent map needed
// to resolve entry matches to rules, written in one stream.
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
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(e.numRules))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	buf := make([]byte, 4)
	for _, p := range e.parent {
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
