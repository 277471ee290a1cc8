package fpga

import (
	"testing"

	"pktclass/internal/floorplan"
	"pktclass/internal/packet"
)

var paperNs = []int{32, 64, 128, 256, 512, 1024, 2048}

func TestDeviceCapacities(t *testing.T) {
	d := Virtex7()
	if d.Slices != 78000 {
		t.Fatalf("slices = %d", d.Slices)
	}
	if d.DistRAMBits != 8<<20 {
		t.Fatalf("distRAM = %d", d.DistRAMBits)
	}
	if d.LUTs() != 4*78000 || d.FFs() != 8*78000 {
		t.Fatal("LUT/FF capacity wrong")
	}
	if d.BRAMBits() != 2000*36*1024 {
		t.Fatalf("BRAM bits = %d", d.BRAMBits())
	}
	if d.String() == "" {
		t.Fatal("empty device string")
	}
}

func TestStrideBVMemoryMatchesPaperFig7(t *testing.T) {
	// k=4, N=2048 -> 832 Kbit (the paper's "<900 Kbit" worst case);
	// k=3, N=2048 -> 560 Kbit; TCAM N=2048 -> 416 Kbit, always lowest.
	c4 := StrideBVConfig{Ne: 2048, K: 4, Memory: DistRAM}
	if kb := c4.MemoryBits() / 1024; kb != 832 {
		t.Fatalf("k=4 memory = %d Kbit", kb)
	}
	c3 := StrideBVConfig{Ne: 2048, K: 3, Memory: DistRAM}
	if kb := c3.MemoryBits() / 1024; kb != 560 {
		t.Fatalf("k=3 memory = %d Kbit", kb)
	}
	d := Virtex7()
	tc := TCAMResources(d, TCAMConfig{Ne: 2048})
	if kb := tc.MemoryBits / 1024; kb != 416 {
		t.Fatalf("TCAM memory = %d Kbit", kb)
	}
	for _, n := range paperNs {
		tcam := TCAMResources(d, TCAMConfig{Ne: n}).MemoryBits
		s3 := StrideBVConfig{Ne: n, K: 3}.MemoryBits()
		s4 := StrideBVConfig{Ne: n, K: 4}.MemoryBits()
		if !(tcam < s3 && tcam < s4) {
			t.Fatalf("N=%d: TCAM memory %d not lowest (%d, %d)", n, tcam, s3, s4)
		}
	}
}

func TestMemoryLinearInN(t *testing.T) {
	for _, k := range []int{3, 4} {
		base := StrideBVConfig{Ne: 32, K: k}.MemoryBits()
		for _, n := range paperNs {
			got := StrideBVConfig{Ne: n, K: k}.MemoryBits()
			if got != base*n/32 {
				t.Fatalf("k=%d: memory not linear at N=%d", k, n)
			}
		}
	}
}

func TestBRAMsPerStageMinimumBlock(t *testing.T) {
	d := Virtex7()
	// Even a 32-bit vector needs a whole block per stage.
	if got := (StrideBVConfig{Ne: 32, K: 3}).BRAMsPerStage(d); got != 1 {
		t.Fatalf("Ne=32: %d blocks/stage", got)
	}
	if got := (StrideBVConfig{Ne: 2048, K: 3}).BRAMsPerStage(d); got != 57 {
		t.Fatalf("Ne=2048: %d blocks/stage", got)
	}
}

func TestPaperFig9BRAMSaturation(t *testing.T) {
	d := Virtex7()
	// k=3, N=2048 is the paper's "all available block RAM fully" point.
	r3 := StrideBVResources(d, StrideBVConfig{Ne: 2048, K: 3, Memory: BlockRAM})
	pct3 := r3.Utilization(d).BRAMPct
	if pct3 < 95 || pct3 > 100 {
		t.Fatalf("k=3 N=2048 BRAM%% = %.1f, want ~100", pct3)
	}
	r4 := StrideBVResources(d, StrideBVConfig{Ne: 2048, K: 4, Memory: BlockRAM})
	pct4 := r4.Utilization(d).BRAMPct
	if pct4 >= pct3 || pct4 < 50 {
		t.Fatalf("k=4 N=2048 BRAM%% = %.1f", pct4)
	}
}

func TestSlicesStride4CheaperThan3(t *testing.T) {
	// Paper Fig 8: k=4 uses ~1.3x fewer slices (fewer stages).
	d := Virtex7()
	for _, mem := range []MemoryKind{DistRAM, BlockRAM} {
		for _, n := range paperNs {
			s3 := StrideBVResources(d, StrideBVConfig{Ne: n, K: 3, Memory: mem}).Slices
			s4 := StrideBVResources(d, StrideBVConfig{Ne: n, K: 4, Memory: mem}).Slices
			ratio := float64(s3) / float64(s4)
			if ratio < 1.15 || ratio > 1.5 {
				t.Fatalf("%v N=%d: k3/k4 slice ratio %.2f outside [1.15,1.5]", mem, n, ratio)
			}
		}
	}
}

func TestDistRAMSlicesNear40PctAt2048(t *testing.T) {
	d := Virtex7()
	r := StrideBVResources(d, StrideBVConfig{Ne: 2048, K: 4, Memory: DistRAM})
	pct := r.Utilization(d).SlicePct
	if pct < 35 || pct < 0 || pct > 55 {
		t.Fatalf("distRAM k=4 N=2048 slice%% = %.1f, paper reports ~40%%", pct)
	}
}

func TestResourcesFitDevice(t *testing.T) {
	d := Virtex7()
	for _, n := range paperNs {
		for _, k := range []int{3, 4} {
			for _, mem := range []MemoryKind{DistRAM, BlockRAM} {
				r := StrideBVResources(d, StrideBVConfig{Ne: n, K: k, Memory: mem})
				if err := r.Fits(d); err != nil {
					t.Fatalf("stridebv k=%d %v N=%d: %v", k, mem, n, err)
				}
			}
		}
		if err := TCAMResources(d, TCAMConfig{Ne: n}).Fits(d); err != nil {
			t.Fatalf("tcam N=%d: %v", n, err)
		}
	}
	// And an absurd config must not fit.
	huge := StrideBVResources(d, StrideBVConfig{Ne: 1 << 17, K: 3, Memory: DistRAM})
	if err := huge.Fits(d); err == nil {
		t.Fatal("2^17-entry engine claimed to fit")
	}
}

func TestIOBsConstantAcrossEngines(t *testing.T) {
	d := Virtex7()
	a := StrideBVResources(d, StrideBVConfig{Ne: 512, K: 3, Memory: DistRAM}).IOBs
	b := TCAMResources(d, TCAMConfig{Ne: 512}).IOBs
	if a != b {
		t.Fatalf("IOBs differ: %d vs %d", a, b)
	}
	if a <= packet.W || a > 200 {
		t.Fatalf("IOB count %d implausible", a)
	}
}

func TestThroughputFormula(t *testing.T) {
	// 2 ports at 100 MHz with 320-bit packets = 64 Gbps.
	if got := ThroughputGbps(100, 2); got != 64 {
		t.Fatalf("ThroughputGbps = %v", got)
	}
	if got := ThroughputGbps(100, 1); got != 32 {
		t.Fatalf("single-port ThroughputGbps = %v", got)
	}
}

func TestTimingDeterministicAndBounded(t *testing.T) {
	d := Virtex7()
	c := StrideBVConfig{Ne: 512, K: 4, Memory: DistRAM}
	t1, _, err := StrideBVTiming(d, c, floorplan.Automatic, 1)
	if err != nil {
		t.Fatal(err)
	}
	t2, _, err := StrideBVTiming(d, c, floorplan.Automatic, 1)
	if err != nil {
		t.Fatal(err)
	}
	if t1.ClockMHz != t2.ClockMHz {
		t.Fatal("timing not deterministic")
	}
	if t1.ClockMHz <= 0 || t1.ClockMHz > d.ClockCapMHz {
		t.Fatalf("clock %.1f outside (0,%f]", t1.ClockMHz, d.ClockCapMHz)
	}
}

func TestFloorplanningImprovesClock(t *testing.T) {
	// Figs 5 and 6: PlanAhead placement raises the clock for both memories.
	d := Virtex7()
	for _, mem := range []MemoryKind{DistRAM, BlockRAM} {
		for _, n := range []int{256, 1024, 2048} {
			k := 4
			if mem == BlockRAM {
				k = 3
			}
			if mem == BlockRAM && n == 2048 {
				k = 4 // k=3 BRAM at 2048 saturates the device
			}
			c := StrideBVConfig{Ne: n, K: k, Memory: mem}
			auto, _, err := StrideBVTiming(d, c, floorplan.Automatic, 1)
			if err != nil {
				t.Fatal(err)
			}
			fp, _, err := StrideBVTiming(d, c, floorplan.Floorplanned, 1)
			if err != nil {
				t.Fatal(err)
			}
			gain := fp.ClockMHz / auto.ClockMHz
			if gain < 1.0 {
				t.Fatalf("%v N=%d: floorplanning slowed clock (%.2fx)", mem, n, gain)
			}
			if n >= 1024 && (gain < 1.2 || gain > 2.5) {
				t.Fatalf("%v N=%d: floorplanning gain %.2fx outside paper-scale band", mem, n, gain)
			}
		}
	}
}

func TestThroughputDeclinesWithN(t *testing.T) {
	d := Virtex7()
	configs := []StrideBVConfig{
		{K: 3, Memory: DistRAM}, {K: 4, Memory: DistRAM},
		{K: 3, Memory: BlockRAM}, {K: 4, Memory: BlockRAM},
	}
	for _, base := range configs {
		prev := 1e18
		for _, n := range paperNs {
			if base.Memory == BlockRAM && base.K == 3 && n == 2048 {
				continue // exceeds device BRAM
			}
			c := base
			c.Ne = n
			tm, _, err := StrideBVTiming(d, c, floorplan.Automatic, 1)
			if err != nil {
				t.Fatal(err)
			}
			if tm.ClockMHz > prev*1.02 { // small tolerance for placement noise
				t.Fatalf("%v k=%d: clock rose from %.1f to %.1f at N=%d",
					base.Memory, base.K, prev, tm.ClockMHz, n)
			}
			prev = tm.ClockMHz
		}
	}
	prev := 1e18
	for _, n := range paperNs {
		tm, _, err := TCAMTiming(d, TCAMConfig{Ne: n}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if tm.ClockMHz > prev*1.02 {
			t.Fatalf("tcam: clock rose at N=%d", n)
		}
		prev = tm.ClockMHz
	}
}

// TestPaperHeadlineRatios locks the calibrated model to the paper's core
// quantitative claims (abstract + Section V-A): averaged over the ruleset
// sweep, StrideBV over TCAM throughput is ~6x with distRAM and ~4x with
// BRAM, and distRAM is ~1.3x BRAM.
func TestPaperHeadlineRatios(t *testing.T) {
	d := Virtex7()
	avg := func(mem MemoryKind) float64 {
		total, count := 0.0, 0
		for _, n := range paperNs {
			for _, k := range []int{3, 4} {
				if mem == BlockRAM && k == 3 && n == 2048 {
					continue
				}
				c := StrideBVConfig{Ne: n, K: k, Memory: mem}
				tm, _, err := StrideBVTiming(d, c, floorplan.Automatic, 1)
				if err != nil {
					t.Fatal(err)
				}
				total += ThroughputGbps(tm.ClockMHz, 2)
				count++
			}
		}
		return total / float64(count)
	}
	tcamAvg := 0.0
	for _, n := range paperNs {
		tm, _, err := TCAMTiming(d, TCAMConfig{Ne: n}, 1)
		if err != nil {
			t.Fatal(err)
		}
		tcamAvg += ThroughputGbps(tm.ClockMHz, 1)
	}
	tcamAvg /= float64(len(paperNs))

	dist, bram := avg(DistRAM), avg(BlockRAM)
	if r := dist / tcamAvg; r < 4.5 || r > 7.5 {
		t.Fatalf("distRAM/TCAM throughput ratio = %.2f, paper reports ~6x", r)
	}
	if r := bram / tcamAvg; r < 3.0 || r > 5.5 {
		t.Fatalf("BRAM/TCAM throughput ratio = %.2f, paper reports ~4x", r)
	}
	if r := dist / bram; r < 1.1 || r > 1.6 {
		t.Fatalf("distRAM/BRAM throughput ratio = %.2f, paper reports ~1.3x", r)
	}
}

func TestPowerEfficiencyRatios(t *testing.T) {
	// Section V-D: BRAM power efficiency is ~4.5x worse (k=3) and ~3.5x
	// worse (k=4) than distRAM; k=4 BRAM is ~1.3x better than k=3 BRAM.
	d := Virtex7()
	eff := func(k int, mem MemoryKind) float64 {
		c := StrideBVConfig{Ne: 512, K: k, Memory: mem}
		r, err := EvaluateStrideBV(d, c, floorplan.Automatic, 1)
		if err != nil {
			t.Fatal(err)
		}
		return r.PowerEffMWPerGbps
	}
	d3, d4 := eff(3, DistRAM), eff(4, DistRAM)
	b3, b4 := eff(3, BlockRAM), eff(4, BlockRAM)
	distAvg := (d3 + d4) / 2
	if r := b3 / distAvg; r < 3.2 || r > 6.0 {
		t.Fatalf("BRAM k=3 vs distRAM efficiency ratio %.2f, paper ~4.5x", r)
	}
	if r := b4 / distAvg; r < 2.4 || r > 4.6 {
		t.Fatalf("BRAM k=4 vs distRAM efficiency ratio %.2f, paper ~3.5x", r)
	}
	if r := b3 / b4; r < 1.1 || r > 1.6 {
		t.Fatalf("BRAM k3/k4 efficiency ratio %.2f, paper ~1.3x", r)
	}
	// Abstract: StrideBV (distRAM) has ~4.5x better power efficiency than
	// TCAM.
	rt, err := EvaluateTCAM(d, TCAMConfig{Ne: 512}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r := rt.PowerEffMWPerGbps / distAvg; r < 3.0 || r > 8.0 {
		t.Fatalf("TCAM vs distRAM efficiency ratio %.2f, paper ~4.5x", r)
	}
}

func TestEvaluateReportsComplete(t *testing.T) {
	d := Virtex7()
	r, err := EvaluateStrideBV(d, StrideBVConfig{Ne: 256, K: 3, Memory: BlockRAM}, floorplan.Floorplanned, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.ThroughputGbps <= 0 || r.MemoryKbit <= 0 || r.BytesPerRule <= 0 ||
		r.Power.TotalW <= 0 || r.Placement == nil {
		t.Fatalf("incomplete report: %+v", r)
	}
	if r.String() == "" {
		t.Fatal("empty report string")
	}
	rt, err := EvaluateTCAM(d, TCAMConfig{Ne: 256}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rt.ThroughputGbps <= 0 || rt.String() == "" {
		t.Fatal("incomplete TCAM report")
	}
}

func TestEvaluateRejectsOversized(t *testing.T) {
	d := Virtex7()
	if _, err := EvaluateStrideBV(d, StrideBVConfig{Ne: 2048, K: 3, Memory: BlockRAM}, floorplan.Automatic, 1); err == nil {
		// k=3 N=2048 BRAM needs 1995 of 2000 blocks: it fits; raise Ne.
		if _, err := EvaluateStrideBV(d, StrideBVConfig{Ne: 4096, K: 3, Memory: BlockRAM}, floorplan.Automatic, 1); err == nil {
			t.Fatal("4096-entry BRAM build should exceed the device")
		}
	}
}

func TestPowerBreakdownConsistent(t *testing.T) {
	d := Virtex7()
	c := StrideBVConfig{Ne: 512, K: 3, Memory: BlockRAM}
	tm, pl, err := StrideBVTiming(d, c, floorplan.Automatic, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := StrideBVPower(d, c, pl, tm.ClockMHz)
	sum := p.StaticW + p.LogicW + p.MemW + p.NetW
	if diff := p.TotalW - sum; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("total %.6f != sum %.6f", p.TotalW, sum)
	}
	if p.MemW <= 0 {
		t.Fatal("BRAM build has zero memory power")
	}
	// distRAM at same size must burn less memory power.
	cd := c
	cd.Memory = DistRAM
	tmd, pld, err := StrideBVTiming(d, cd, floorplan.Automatic, 1)
	if err != nil {
		t.Fatal(err)
	}
	pd := StrideBVPower(d, cd, pld, tmd.ClockMHz)
	if pd.MemW >= p.MemW {
		t.Fatalf("distRAM mem power %.3f >= BRAM %.3f", pd.MemW, p.MemW)
	}
	if p.Efficiency(0) != p.Efficiency(-1) { // both +Inf
		t.Fatal("Efficiency at zero throughput not infinite")
	}
}

func BenchmarkEvaluateStrideBV(b *testing.B) {
	d := Virtex7()
	c := StrideBVConfig{Ne: 1024, K: 4, Memory: DistRAM}
	for i := 0; i < b.N; i++ {
		if _, err := EvaluateStrideBV(d, c, floorplan.Floorplanned, 1); err != nil {
			b.Fatal(err)
		}
	}
}
