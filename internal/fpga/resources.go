package fpga

import (
	"fmt"
	"math"

	"pktclass/internal/packet"
	"pktclass/internal/penc"
)

// Resources is a structural resource estimate for one engine configuration.
type Resources struct {
	LUTs       int
	FFs        int
	MemLUTs    int // LUTs configured as distributed RAM / SRL (SLICEM only)
	BRAMs      int // 36 Kb blocks
	Slices     int // packed slice estimate
	IOBs       int
	MemoryBits int // architectural storage requirement (paper Fig 7 metric)
}

// Utilization expresses the estimate as fractions of a device.
type Utilization struct {
	SlicePct float64
	BRAMPct  float64
	IOBPct   float64
}

// Utilization computes device fractions (in percent).
func (r Resources) Utilization(d Device) Utilization {
	return Utilization{
		SlicePct: 100 * float64(r.Slices) / float64(d.Slices),
		BRAMPct:  100 * float64(r.BRAMs) / float64(d.BRAMBlocks),
		IOBPct:   100 * float64(r.IOBs) / float64(d.IOBs),
	}
}

// Fits reports whether the estimate fits the device.
func (r Resources) Fits(d Device) error {
	if r.Slices > d.Slices {
		return fmt.Errorf("fpga: needs %d slices, device has %d", r.Slices, d.Slices)
	}
	if r.BRAMs > d.BRAMBlocks {
		return fmt.Errorf("fpga: needs %d BRAMs, device has %d", r.BRAMs, d.BRAMBlocks)
	}
	if r.IOBs > d.IOBs {
		return fmt.Errorf("fpga: needs %d IOBs, device has %d", r.IOBs, d.IOBs)
	}
	return nil
}

// packSlices converts LUT/FF demand into slices. Memory LUTs pack into
// SLICEMs (4 per slice); the regular, replicated structures of both engines
// pack nearly perfectly, so only a small fragmentation margin applies.
const slicePacking = 0.95

func packSlices(d Device, luts, ffs int) int {
	byLUT := float64(luts) / float64(d.LUTsPerSlice)
	byFF := float64(ffs) / float64(d.FFsPerSlice)
	need := math.Max(byLUT, byFF) / slicePacking
	return int(math.Ceil(need))
}

// classifierIOBs is the pin budget of any engine: a 104-bit header bus in,
// a result bus (rule index + valid) out, plus clock/reset/control. The
// paper drives both engines through the same interface, so IOB usage is
// architecture-independent.
func classifierIOBs(n int) int {
	result := bitsFor(n) + 1
	const control = 8
	return packet.W + result + control
}

func bitsFor(n int) int {
	b := 0
	for c := 1; c < n; c *= 2 {
		b++
	}
	if b == 0 {
		b = 1
	}
	return b
}

// StrideBVConfig describes one StrideBV hardware configuration.
type StrideBVConfig struct {
	// Ne is the bit-vector width (ternary entry count).
	Ne int
	// K is the stride length in bits.
	K int
	// Memory selects distributed or block RAM stage memory.
	Memory MemoryKind
}

// Stages returns the pipeline depth ceil(W/K).
func (c StrideBVConfig) Stages() int { return packet.NumStrides(c.K) }

// MemoryBits returns the architectural stage-memory requirement.
func (c StrideBVConfig) MemoryBits() int { return c.Stages() * (1 << uint(c.K)) * c.Ne }

// BRAMsPerStage returns the block count one stage needs when stage memory
// is BRAM: the word is Ne bits wide but one true-dual-port port supplies at
// most BRAMPortWidth bits, so ceil(Ne/width) blocks run in parallel
// regardless of how few of each block's bits are used — the minimum-block
// waste the paper's power discussion calls out.
func (c StrideBVConfig) BRAMsPerStage(d Device) int {
	return (c.Ne + d.BRAMPortWidth - 1) / d.BRAMPortWidth
}

// String names the configuration the way the paper's figure legends do.
func (c StrideBVConfig) String() string {
	return fmt.Sprintf("stridebv %s, stride = %d, N = %d", c.Memory, c.K, c.Ne)
}

// StrideBVResources estimates the hardware cost of a StrideBV pipeline.
//
// Per stage, for an Ne-bit vector and dual-port (2 packets/cycle) issue:
//
//	distRAM:  memory   1.5·Ne LUTs (RAM32M-style packing of the dual-read
//	                   bit columns for the two packet ports)
//	          AND      Ne LUTs    (2 ports × Ne two-input ANDs, dual-output
//	                   LUT6 packs both ports' ANDs of one entry)
//	          regs     2·Ne + 2·W FFs (BVP + forwarded header, both ports)
//	bram:     memory   ceil(Ne/36) 36Kb blocks (TDP, one port per packet)
//	          AND      Ne LUTs
//	          glue     Ne + Ne/4 LUTs (column interfacing, address fanout,
//	                   per-block enables)
//	          regs     6·Ne + 2·W FFs (extra register stages crossing to
//	                   and from the fixed BRAM columns — the slice overhead
//	                   the paper observes for BRAM at large N)
//
// plus the two pipelined priority encoders (per port):
//
//	PPE:      ~Ne·(log2 Ne + 2) FFs and ~Ne LUTs per port.
func StrideBVResources(d Device, c StrideBVConfig) Resources {
	stages := c.Stages()
	var r Resources
	r.MemoryBits = c.MemoryBits()
	peFF := 2 * c.Ne * (penc.Stages(maxInt(c.Ne, 2)) + 2)
	peLUT := 2 * c.Ne
	switch c.Memory {
	case DistRAM:
		r.MemLUTs = stages * 3 * c.Ne / 2
		r.LUTs = r.MemLUTs + stages*c.Ne + peLUT
		r.FFs = stages*(2*c.Ne+2*packet.W) + peFF
	case BlockRAM:
		r.BRAMs = stages * c.BRAMsPerStage(d)
		r.LUTs = stages*(2*c.Ne+c.Ne/4) + peLUT
		r.FFs = stages*(6*c.Ne+2*packet.W) + peFF
	}
	r.Slices = packSlices(d, r.LUTs, r.FFs)
	r.IOBs = classifierIOBs(c.Ne)
	return r
}

// TCAMConfig describes one SRL16E TCAM configuration.
type TCAMConfig struct {
	// Ne is the entry count.
	Ne int
}

// TCAMResources estimates the SRL16E-based TCAM of the paper's Section
// IV-B: per entry, W/2 SRL16E cells (one per 2 ternary bits) plus a
// 52-input match-reduce tree (three LUT6 levels), then a priority encoder
// and the registered input/output of the control block.
func TCAMResources(d Device, c TCAMConfig) Resources {
	const cellsPerEntry = packet.W / 2 // 52 SRL16Es
	// 52 -> 9 -> 2 -> 1 with 6-input ANDs.
	const reduceLUTs = 12
	var r Resources
	r.MemLUTs = c.Ne * cellsPerEntry
	r.LUTs = c.Ne*(cellsPerEntry+reduceLUTs) +
		2*c.Ne + // priority encoder mux tree
		2*packet.W // ternary write encoder + input register fanout buffers
	r.FFs = 2*packet.W + // registered search key
		2*c.Ne + // match-line and PE registers
		bitsFor(c.Ne) + 8 // result + control block state
	r.Slices = packSlices(d, r.LUTs, r.FFs)
	r.IOBs = classifierIOBs(c.Ne)
	r.MemoryBits = 2 * packet.W * c.Ne // data + mask (paper Sec. V-B)
	return r
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
