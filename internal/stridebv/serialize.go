package stridebv

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"slices"

	"pktclass/internal/packet"
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

// Images are read in chunks through one buffer that starts at minChunk
// bytes and doubles, up to readChunk, only as the stream delivers as many
// bytes as it holds: what ReadImage allocates ahead of the bytes is
// bounded by what has already arrived.
const (
	minChunk  = 4 << 10
	readChunk = 64 << 10
)

// ReadImage reconstructs an engine from a serialized image. The loaded
// engine classifies identically to the original, and UpdateEntry and
// ApplyDeltas work on it as on a built engine: a rewrite re-derives only
// the dirty entries' bits and keeps every other bit as stored. It
// allocates only for bytes it has read — the parent map and each stage
// block grow as their rows arrive — so an image whose header declares more
// than follows fails having allocated about what it delivered.
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
	ir := &imageReader{r: r, read: len(hdr)}
	parent, err := readValues(ir, ne, 4, func(b []byte) int32 { return int32(binary.LittleEndian.Uint32(b)) })
	if err != nil {
		return nil, fmt.Errorf("stridebv: truncated parent table: %w", err)
	}
	for _, p := range parent {
		if p < 0 || int(p) >= numRules {
			return nil, fmt.Errorf("stridebv: parent %d out of range", uint32(p))
		}
	}
	m := newMemory(packet.W, k, ne)
	// Tail-word hygiene: stored images must not set bits past ne (a
	// corrupt tail would let the walker return an out-of-range entry).
	tail := uint(ne % 64)
	var blks [][]uint64
	for range stages {
		blk, err := readValues(ir, m.words<<uint(k), 8, binary.LittleEndian.Uint64)
		if err != nil {
			return nil, fmt.Errorf("stridebv: truncated stage memory: %w", err)
		}
		for i := m.words - 1; tail != 0 && i < len(blk); i += m.words {
			if blk[i]>>tail != 0 {
				return nil, fmt.Errorf("stridebv: image has bits beyond ne")
			}
		}
		blks = append(blks, blk)
	}
	m.blk = blks
	e := &Engine{Memory: m, parent: parent, numRules: numRules}
	e.RefreshSummaries()
	return e, nil
}

// imageReader reads an image through one growing buffer.
type imageReader struct {
	r    io.Reader
	buf  []byte
	read int // bytes delivered so far
}

// limit is the most the next chunk may ask for: the largest power of two
// delivered so far, within [minChunk, readChunk].
func (ir *imageReader) limit() int {
	return min(readChunk, max(minChunk, 1<<(bits.Len(uint(ir.read))-1)))
}

// next reads the next n bytes, n <= limit(), into the buffer.
func (ir *imageReader) next(n int) ([]byte, error) {
	if len(ir.buf) < n {
		ir.buf = make([]byte, ir.limit())
	}
	b := ir.buf[:n]
	if _, err := io.ReadFull(ir.r, b); err != nil {
		return nil, err
	}
	ir.read += n
	return b, nil
}

// readValues reads n values of size bytes each, decoding each with dec.
// Each chunk is decoded into storage made after the chunk has been read,
// and the chunks are joined once at the end, so a stream that stops short
// costs the chunks it delivered and the buffer.
func readValues[T any](ir *imageReader, n, size int, dec func([]byte) T) ([]T, error) {
	var chunks [][]T
	for have := 0; have < n; {
		m := min(n-have, ir.limit()/size)
		b, err := ir.next(m * size)
		if err != nil {
			return nil, err
		}
		c := make([]T, m)
		for i := range c {
			c[i] = dec(b[i*size:])
		}
		chunks = append(chunks, c)
		have += m
	}
	if len(chunks) == 1 {
		return chunks[0], nil
	}
	return slices.Concat(chunks...), nil
}
