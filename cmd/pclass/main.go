// Command pclass classifies a packet trace against a ruleset with a chosen
// engine and reports per-packet decisions and aggregate statistics.
//
// Usage:
//
//	pclass -rules rules.txt -trace trace.txt -engine stridebv -stride 4
//	pclass -rules rules.txt -trace trace.bin -engine tcam -v
//	pclass serve -rules rules.txt -clients 8 -update-every 5ms
//	pclass serve -rules rules.txt -measure
//	pclass bench -engines stridebv,tcam -sizes 32,512
//
// Engines: stridebv | fsbv | rangebv | tcam | tcam-fpga | hicuts | linear.
// Traces may be text or binary (format is sniffed). Every run is
// differentially verified against the linear reference unless -noverify.
//
// The serve subcommand runs the concurrent classification service: a
// load generator drives worker goroutines while an optional updater lands
// atomic ruleset hot-swaps (-update-every); -measure instead replays the
// trace once under continuous churn and reports throughput degradation.
//
// The bench subcommand measures each engine's batched classification rate
// over synthetic rulesets and prints one row per configuration.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"pktclass/internal/cli"
	"pktclass/internal/core"
	"pktclass/internal/ruleset"
	"pktclass/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pclass: ")
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		runServe(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "bench" {
		runBench(os.Args[2:])
		return
	}
	var (
		rulesPath = flag.String("rules", "", "ruleset file (required)")
		tracePath = flag.String("trace", "", "trace file, text or binary (required)")
		engine    = flag.String("engine", "stridebv", "engine: "+strings.Join(cli.EngineNames(), " | "))
		stride    = flag.Int("stride", 4, "stride length for stridebv/rangebv")
		workers   = flag.Int("workers", 0, "classification workers (0 = GOMAXPROCS)")
		verbose   = flag.Bool("v", false, "print one line per packet")
		noVerify  = flag.Bool("noverify", false, "skip differential verification")
		multi     = flag.Bool("multimatch", false, "report all matching rules (IDS mode)")
	)
	flag.Parse()
	if *rulesPath == "" || *tracePath == "" {
		flag.Usage()
		os.Exit(2)
	}

	rs, err := cli.LoadRuleSet(*rulesPath)
	if err != nil {
		log.Fatal(err)
	}
	trace, err := cli.LoadTrace(*tracePath)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := cli.BuildEngine(rs, *engine, *stride)
	if err != nil {
		log.Fatal(err)
	}

	if !*noVerify {
		sample := trace
		if len(sample) > 2000 {
			sample = sample[:2000]
		}
		if ms := core.Verify(core.NewLinear(rs), eng, sample); len(ms) > 0 {
			log.Fatalf("engine failed verification: %s", ms[0])
		}
	}

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()

	if *multi {
		start := time.Now()
		var matches int
		for i, h := range trace {
			m := eng.MultiMatch(h)
			matches += len(m)
			if *verbose {
				fmt.Fprintf(out, "%6d %s -> %v\n", i, h, m)
			}
		}
		fmt.Fprintf(out, "%d packets, %d total matches, %.0f pkt/s (%s, multi-match)\n",
			len(trace), matches, float64(len(trace))/time.Since(start).Seconds(), eng.Name())
		return
	}

	br := sim.ClassifyBatch(eng, trace, *workers)
	stats := struct {
		forwarded, dropped, missed int
	}{}
	for i, r := range br.Results {
		a := core.Action(rs, r)
		switch {
		case r < 0:
			stats.missed++
		case a.Kind == ruleset.Drop:
			stats.dropped++
		default:
			stats.forwarded++
		}
		if *verbose {
			fmt.Fprintf(out, "%6d %s -> rule %d (%s)\n", i, trace[i], r, a)
		}
	}
	fmt.Fprintf(out, "engine      %s\n", eng.Name())
	fmt.Fprintf(out, "packets     %d\n", br.Packets)
	fmt.Fprintf(out, "forwarded   %d\n", stats.forwarded)
	fmt.Fprintf(out, "dropped     %d\n", stats.dropped)
	fmt.Fprintf(out, "no match    %d (default deny)\n", stats.missed)
	fmt.Fprintf(out, "rate        %.0f packets/s over %d workers\n", br.PacketsPerSec, br.Workers)
}
