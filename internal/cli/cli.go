// Package cli holds the I/O and engine-construction helpers the command
// line tools share: ruleset/trace loading with format sniffing, and the
// engine registry mapping -engine names to constructors.
package cli

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"

	"pktclass/internal/core"
	"pktclass/internal/dtree"
	"pktclass/internal/packet"
	"pktclass/internal/partition"
	"pktclass/internal/ruleset"
	"pktclass/internal/stridebv"
	"pktclass/internal/tcam"
)

// LoadRuleSet reads a ruleset file in the text format.
func LoadRuleSet(path string) (*ruleset.RuleSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs, err := ruleset.Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// LoadTrace reads a trace file, sniffing the binary magic and falling back
// to the text format. Empty traces are an error.
func LoadTrace(path string) ([]packet.Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	trace, err := ReadTrace(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(trace) == 0 {
		return nil, fmt.Errorf("%s: empty trace", path)
	}
	return trace, nil
}

// ReadTrace reads a trace from a stream with format sniffing.
func ReadTrace(r io.Reader) ([]packet.Header, error) {
	br := bufio.NewReader(r)
	magic, _ := br.Peek(4)
	if bytes.Equal(magic, []byte("PKTC")) {
		return packet.ReadBinaryTrace(br)
	}
	return packet.ParseTrace(br)
}

// EngineNames lists the -engine values BuildEngine accepts. The "part-"
// prefix composes: "part-<sub>" wraps any other listed engine in the
// partitioning layer (e.g. "part-stridebv", "part-tcam"). Every listed
// engine is safe for concurrent use; the cycle models (tcam.FPGA,
// stridebv.Pipeline) are not, and are not listed.
func EngineNames() []string {
	return []string{"stridebv", "fsbv", "rangebv", "tcam", "hicuts", "linear", "part-stridebv"}
}

// Options carries the engine-construction knobs beyond the engine name.
// The zero value of each field means "engine default".
type Options struct {
	// Stride is the k parameter of the stride-parameterized engines.
	Stride int
	// Partitions is the band count for the partitioned engine (0 = the
	// partition package's fixed default of 1).
	Partitions int
	// Splitter selects the partitioning policy ("prefix" or "band";
	// "" = prefix).
	Splitter string
	// PrefixBits is the pre-decoder width for the prefix splitter
	// (0 = size from N).
	PrefixBits int
}

// EngineBuilder curries BuildEngine over a fixed engine name and stride,
// yielding the rebuild-from-ruleset shape the serving layer's hot-swap
// path wants (serve.BuildFunc).
func EngineBuilder(name string, stride int) func(*ruleset.RuleSet) (core.Engine, error) {
	return EngineBuilderOpts(name, Options{Stride: stride})
}

// EngineBuilderOpts is EngineBuilder with the full option set.
func EngineBuilderOpts(name string, opts Options) func(*ruleset.RuleSet) (core.Engine, error) {
	return func(rs *ruleset.RuleSet) (core.Engine, error) {
		return BuildEngineOpts(rs, name, opts)
	}
}

// BuildEngine constructs the named engine over the ruleset. stride applies
// to the stride-parameterized engines.
func BuildEngine(rs *ruleset.RuleSet, name string, stride int) (core.Engine, error) {
	return BuildEngineOpts(rs, name, Options{Stride: stride})
}

// BuildEngineOpts constructs the named engine with the full option set.
// "part-<sub>" builds the partitioning layer over sub-engines constructed
// by the builder for <sub> (recursively, though nesting partitions is
// pointless in practice).
func BuildEngineOpts(rs *ruleset.RuleSet, name string, opts Options) (core.Engine, error) {
	if sub, ok := strings.CutPrefix(name, "part-"); ok {
		if sub == "" {
			return nil, fmt.Errorf("engine %q names no sub-engine (use e.g. part-stridebv)", name)
		}
		e, err := partition.New(rs, partition.Config{
			Splitter:   partition.Splitter(opts.Splitter),
			Parts:      opts.Partitions,
			PrefixBits: opts.PrefixBits,
			// Sub-engines get the scalar options only: a partition of
			// partitions would re-split every sub-ruleset.
			Build: EngineBuilder(sub, opts.Stride),
		})
		if err != nil {
			return nil, err
		}
		return e, nil
	}
	stride := opts.Stride
	switch name {
	case "linear":
		return core.NewLinear(rs), nil
	case "tcam":
		return tcam.NewBehavioral(rs.Expand()), nil
	case "stridebv":
		e, err := stridebv.New(rs.Expand(), stride)
		if err != nil {
			return nil, err
		}
		return e, nil
	case "fsbv":
		e, err := stridebv.NewFSBV(rs.Expand())
		if err != nil {
			return nil, err
		}
		return e, nil
	case "rangebv":
		e, err := stridebv.NewRange(rs, stride)
		if err != nil {
			return nil, err
		}
		return e, nil
	case "hicuts":
		e, err := dtree.New(rs, dtree.DefaultConfig())
		if err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, fmt.Errorf("unknown engine %q (choose from %v)", name, EngineNames())
}
