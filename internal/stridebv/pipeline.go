package stridebv

import (
	"fmt"

	"pktclass/internal/bitvec"
	"pktclass/internal/packet"
	"pktclass/internal/penc"
)

// Ports is the number of packets the pipeline accepts per cycle. The paper
// uses dual-port stage memories, so two headers issue every clock
// (Section V-A).
const Ports = 2

// Input is a header entering the pipeline with an opaque token for result
// correlation.
type Input struct {
	Key   packet.Key
	Token any
}

// Output is a completed classification leaving the pipeline.
type Output struct {
	Rule  int // matched rule index or -1
	Token any
}

// flight is a packet in some pipeline stage: its key (the remaining stride
// address bits in hardware) and the partial bit vector BVP.
type flight struct {
	key   packet.Key
	bv    bitvec.Vector
	token any
	live  bool
}

// Pipeline is the cycle-accurate StrideBV datapath: ceil(W/k) memory+AND
// stages followed by one pipelined priority encoder per port. Every call to
// Step is one clock edge; up to Ports packets enter and up to Ports results
// exit per cycle once the pipeline is full.
type Pipeline struct {
	eng   *Engine
	regs  [][Ports]flight
	pes   [Ports]*penc.Pipelined
	cycle int64
	// free recycles partial-result vectors: a vector is taken at admission,
	// travels with its packet through the stage registers, and returns to
	// the list once the priority encoder has consumed it. At most
	// stages×Ports vectors are ever in flight, so after warm-up admission
	// allocates nothing.
	free []bitvec.Vector
}

// NewPipeline wraps an engine in its cycle-accurate pipeline.
func NewPipeline(e *Engine) *Pipeline {
	p := &Pipeline{
		eng:  e,
		regs: make([][Ports]flight, e.stages),
		free: make([]bitvec.Vector, 0, (e.stages+1)*Ports),
	}
	for i := range p.pes {
		p.pes[i] = penc.NewPipelined(e.ne)
	}
	return p
}

// allocBV takes a recycled partial-result vector, or a fresh one while the
// free list is still warming up.
func (p *Pipeline) allocBV() bitvec.Vector {
	if n := len(p.free); n > 0 {
		v := p.free[n-1]
		p.free = p.free[:n-1]
		return v
	}
	return bitvec.New(p.eng.ne)
}

// Latency returns the cycles from packet entry to result exit:
// pipeline stages plus PPE depth.
func (p *Pipeline) Latency() int { return p.eng.stages + p.pes[0].Latency() }

// Cycle returns the clock cycles elapsed.
func (p *Pipeline) Cycle() int64 { return p.cycle }

// Step advances one clock cycle, admitting up to Ports new packets and
// returning any results that completed this cycle.
func (p *Pipeline) Step(in []Input) []Output {
	if len(in) > Ports {
		panic(fmt.Sprintf("stridebv: %d inputs exceed %d ports", len(in), Ports))
	}
	p.cycle++
	var out []Output

	// Last stage drains into the per-port priority encoders; everything
	// else shifts forward, performing that stage's memory read + AND.
	last := p.eng.stages - 1
	for port := 0; port < Ports; port++ {
		var pushed *bitvec.Vector
		var token any
		f := p.regs[last][port]
		if f.live {
			pushed, token = &f.bv, f.token
		}
		r := stepPE(p.pes[port], pushed, token)
		if f.live {
			// The encoder reads the vector into its first reduction level
			// synchronously, so it can be recycled as soon as Step returns.
			p.free = append(p.free, f.bv)
		}
		if r != nil {
			out = append(out, *r)
		}
	}
	for s := last; s > 0; s-- {
		for port := 0; port < Ports; port++ {
			f := p.regs[s-1][port]
			if f.live {
				// Stage s memory read at this packet's stride address,
				// ANDed into the partial result.
				f.bv.AndWith(p.eng.StageVector(s, f.key.Stride(s*p.eng.k, p.eng.k)))
			}
			p.regs[s][port] = f
		}
	}
	// Stage 0: admit new packets. BVP starts as all-ones ANDed with the
	// stage-0 memory word, i.e. just a copy of the addressed vector —
	// written into a recycled vector rather than a per-packet clone.
	for port := 0; port < Ports; port++ {
		p.regs[0][port] = flight{}
		if port < len(in) {
			v := p.allocBV()
			v.CopyFrom(p.eng.StageVector(0, in[port].Key.Stride(0, p.eng.k)))
			p.regs[0][port] = flight{key: in[port].Key, bv: v, token: in[port].Token, live: true}
		}
	}
	return out
}

// stepPE advances one port's priority encoder and converts an exiting entry
// index into an Output.
func stepPE(pe *penc.Pipelined, v *bitvec.Vector, token any) *Output {
	r := pe.Step(v, token)
	if !r.Valid {
		return nil
	}
	return &Output{Rule: r.Index, Token: r.Token}
}

// Drain runs the pipeline with bubbles until all in-flight packets exit.
func (p *Pipeline) Drain() []Output {
	var out []Output
	for i := 0; i < p.Latency()+1; i++ {
		out = append(out, p.Step(nil)...)
	}
	return out
}

// Run clocks the whole trace through the pipeline at full dual-port issue
// and returns results in completion order, with rule indices resolved
// through the parent map (entry -> rule). It also returns the cycle count,
// from which hardware throughput at a given clock follows directly.
func (p *Pipeline) Run(keys []packet.Key) (results []int, cycles int64) {
	results = make([]int, len(keys))
	start := p.cycle
	emit := func(outs []Output) {
		for _, o := range outs {
			idx := o.Token.(int)
			if o.Rule < 0 {
				results[idx] = -1
			} else {
				results[idx] = int(p.eng.parent[o.Rule])
			}
		}
	}
	for i := 0; i < len(keys); i += Ports {
		batch := make([]Input, 0, Ports)
		for j := i; j < len(keys) && j < i+Ports; j++ {
			batch = append(batch, Input{Key: keys[j], Token: j})
		}
		emit(p.Step(batch))
	}
	emit(p.Drain())
	return results, p.cycle - start
}
