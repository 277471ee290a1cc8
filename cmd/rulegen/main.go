// Command rulegen generates synthetic rulesets and packet traces in the
// text formats the rest of the tools consume.
//
// Usage:
//
//	rulegen -n 512 -profile firewall -seed 1 -o rules.txt
//	rulegen -n 512 -trace 10000 -match 0.8 -o trace.txt
//
// With -trace > 0 the tool emits headers (one "sip dip sp dp proto" line
// each) drawn against the generated ruleset instead of the ruleset itself.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"

	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rulegen: ")
	var (
		n       = flag.Int("n", 512, "number of rules")
		profile = flag.String("profile", "firewall", "ruleset profile: firewall | feature-free | prefix-only | acl | fw | ipc (ClassBench-style seeds)")
		seed    = flag.Int64("seed", 1, "generator seed")
		defRule = flag.Bool("default-rule", true, "append a wildcard default rule")
		trace   = flag.Int("trace", 0, "emit this many trace headers instead of the ruleset")
		match   = flag.Float64("match", 0.8, "fraction of trace headers directed at rules")
		local   = flag.Float64("locality", 0.3, "probability a trace header repeats the previous flow")
		binOut  = flag.Bool("binary", false, "write the trace in the compact binary format")
		stats   = flag.Bool("stats", false, "print a ruleset feature report instead of the ruleset")
		out     = flag.String("o", "-", "output file ('-' = stdout)")
	)
	flag.Parse()

	var rs *ruleset.RuleSet
	switch *profile {
	case "acl", "fw", "ipc":
		sd := ruleset.ACLSeed()
		switch *profile {
		case "fw":
			sd = ruleset.FWSeed()
		case "ipc":
			sd = ruleset.IPCSeed()
		}
		var err error
		rs, err = ruleset.GenerateFromSeed(sd, *n, *seed)
		if err != nil {
			log.Fatal(err)
		}
		if *defRule {
			//pclass:allow-mutate freshly generated, not yet shared
			rs.Rules = append(rs.Rules[:len(rs.Rules)-1], ruleset.NewWildcardRule(ruleset.Action{Kind: ruleset.Drop}))
		}
	default:
		p, err := ruleset.ParseProfile(*profile)
		if err != nil {
			log.Fatal(err)
		}
		rs = ruleset.Generate(ruleset.GenConfig{N: *n, Profile: p, Seed: *seed, DefaultRule: *defRule})
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriter(w)
	defer bw.Flush()

	if *stats {
		fmt.Fprint(bw, ruleset.Analyze(rs))
		return
	}
	if *trace > 0 {
		headers := ruleset.GenerateTrace(rs, ruleset.TraceConfig{
			Count: *trace, MatchFraction: *match, Locality: *local, Seed: *seed + 1,
		})
		if *binOut {
			if err := packet.WriteBinaryTrace(bw, headers); err != nil {
				log.Fatal(err)
			}
			return
		}
		for _, h := range headers {
			fmt.Fprintln(bw, h.String())
		}
		return
	}
	if *binOut {
		log.Fatal("-binary applies only to -trace output")
	}
	if err := rs.Write(bw); err != nil {
		log.Fatal(err)
	}
}
