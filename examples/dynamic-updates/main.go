// Dynamic updates: firewall rules change while traffic flows. This example
// applies a stream of rule replacements to a StrideBV engine (one
// bit-slice write per stage) and to an SRL16E TCAM (16-cycle shift per
// entry), verifies both against the updated ruleset's linear reference,
// and compares the sustainable update rates at each engine's modeled clock.
package main

import (
	"fmt"
	"log"

	"pktclass"
	"pktclass/internal/floorplan"
	"pktclass/internal/fpga"
	"pktclass/internal/stridebv"
	"pktclass/internal/tcam"
	"pktclass/internal/update"
)

func main() {
	const n = 256
	const nOps = 500

	// Prefix-only keeps the 1:1 rule/entry mapping delta updates need.
	rs := pktclass.GenerateRuleSet(n, "prefix-only", 21)

	eng, err := stridebv.New(rs.Expand(), 4)
	if err != nil {
		log.Fatal(err)
	}
	fp := tcam.NewFPGA(rs.Expand())
	fmt.Printf("engines: %s and %s over %d rules\n", eng.Name(), fp.Name(), n)

	ops, err := update.GenerateOps(rs, nOps, 22)
	if err != nil {
		log.Fatal(err)
	}

	updated, costS, err := update.ApplyToStrideBV(eng, ops)
	if err != nil {
		log.Fatal(err)
	}
	costT, err := update.ApplyToTCAM(fp, ops)
	if err != nil {
		log.Fatal(err)
	}

	// Both engines must still agree with a linear reference over the
	// updated ruleset.
	next, err := update.ApplyToRuleSet(rs, ops)
	if err != nil {
		log.Fatal(err)
	}
	if err := update.VerifyAfterUpdates(next, updated.Classify, 23); err != nil {
		log.Fatal(err)
	}
	if err := update.VerifyAfterUpdates(next, fp.Classify, 23); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("applied %d rule replacements to each engine; verification clean\n\n", nOps)

	// Update cost at each engine's own modeled clock.
	d := pktclass.Virtex7()
	tmS, _, err := fpga.StrideBVTiming(d, fpga.StrideBVConfig{Ne: n, K: 4, Memory: fpga.DistRAM}, floorplan.Automatic, 1)
	if err != nil {
		log.Fatal(err)
	}
	tmT, _, err := fpga.TCAMTiming(d, fpga.TCAMConfig{Ne: n}, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-22s %14s %18s %16s\n", "engine", "latency (cyc)", "port cyc/update", "updates/s")
	fmt.Printf("%-22s %14d %18.1f %16.2e\n", eng.Name(),
		costS.LatencyCycles, float64(costS.OccupancyCycles)/float64(costS.Ops),
		costS.UpdatesPerSecond(tmS.ClockMHz))
	fmt.Printf("%-22s %14d %18.1f %16.2e\n", fp.Name(),
		costT.LatencyCycles, float64(costT.OccupancyCycles)/float64(costT.Ops),
		costT.UpdatesPerSecond(tmT.ClockMHz))

	ratio := costS.UpdatesPerSecond(tmS.ClockMHz) / costT.UpdatesPerSecond(tmT.ClockMHz)
	fmt.Printf("\nStrideBV sustains %.0fx the TCAM update rate: bit-slice writes\n", ratio)
	fmt.Println("pipeline with traffic, while each SRL16E entry write shifts 16 cycles")
	fmt.Println("through a single port.")
}
