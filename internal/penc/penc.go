// Package penc implements priority encoders: the component that turns a
// multi-match bit vector into the single highest-priority (lowest-index)
// match, at the output of both the TCAM and the StrideBV pipeline.
//
// Two implementations are provided:
//
//   - Encode: the combinational (single-cycle) reference. For wide vectors a
//     combinational encoder's delay grows with N, which the paper identifies
//     as a throughput bottleneck.
//   - Pipelined: the Pipelined Priority Encoder (PPE) of the StrideBV
//     architecture — a binary reduction tree cut into ceil(log2 N) register
//     stages, so each cycle does only a constant amount of work per level
//     and the encoder never limits the pipeline clock.
package penc

import (
	"fmt"

	"pktclass/internal/bitvec"
)

// NoMatch is returned when no bit is set.
const NoMatch = -1

// Encode returns the lowest set bit index of v, or NoMatch. It is the
// combinational reference implementation.
func Encode(v bitvec.Vector) int { return v.FirstSet() }

// Stages returns the pipeline depth of a PPE for n-bit vectors:
// ceil(log2 n), minimum 1.
func Stages(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("penc: invalid width %d", n))
	}
	s := 0
	for cap := 1; cap < n; cap *= 2 {
		s++
	}
	if s == 0 {
		s = 1
	}
	return s
}

// candidate is a (index, valid) pair flowing through the reduction tree.
type candidate struct {
	index int32
	valid bool
}

// Result is an encoder output tagged with the opaque token that entered
// with the vector, so callers can associate results with packets.
type Result struct {
	Index int // winning bit index, or NoMatch
	Token any // token supplied to Push
	Valid bool
}

// Pipelined is a cycle-accurate pipelined priority encoder. Each Step
// advances every in-flight vector by one reduction level; a vector pushed at
// cycle t produces its result at cycle t+Stages(n).
type Pipelined struct {
	n      int
	stages int
	// regs[s] holds the candidate array of the packet currently between
	// level s and level s+1; nil when the slot is empty (a pipeline bubble).
	regs   [][]candidate
	tokens []any
	inUse  []bool
}

// NewPipelined returns a PPE for n-bit vectors.
func NewPipelined(n int) *Pipelined {
	s := Stages(n)
	return &Pipelined{
		n:      n,
		stages: s,
		regs:   make([][]candidate, s),
		tokens: make([]any, s),
		inUse:  make([]bool, s),
	}
}

// Latency returns the pipeline depth in cycles.
func (p *Pipelined) Latency() int { return p.stages }

// Step advances the pipeline by one clock cycle. If v is non-nil it is
// consumed into stage 0 with the given token (an input bubble otherwise).
// The returned Result is Valid when a vector exited the pipeline this cycle.
func (p *Pipelined) Step(v *bitvec.Vector, token any) Result {
	// Drain the last stage.
	var out Result
	last := p.stages - 1
	if p.inUse[last] {
		out = Result{Index: finalIndex(p.regs[last]), Token: p.tokens[last], Valid: true}
	}
	// Shift stages upward, applying one reduction level at each move.
	for s := last; s > 0; s-- {
		if p.inUse[s-1] {
			p.regs[s] = reduceLevel(p.regs[s-1])
			p.tokens[s] = p.tokens[s-1]
			p.inUse[s] = true
		} else {
			p.regs[s] = nil
			p.tokens[s] = nil
			p.inUse[s] = false
		}
	}
	// Level 0: pair up raw bits into candidates.
	if v != nil {
		if v.Len() != p.n {
			panic(fmt.Sprintf("penc: vector width %d, want %d", v.Len(), p.n))
		}
		p.regs[0] = firstLevel(*v)
		p.tokens[0] = token
		p.inUse[0] = true
	} else {
		p.regs[0] = nil
		p.tokens[0] = nil
		p.inUse[0] = false
	}
	return out
}

// Flush advances the pipeline with bubbles until every in-flight vector has
// exited, returning their results in exit order.
func (p *Pipelined) Flush() []Result {
	var out []Result
	for i := 0; i < p.stages; i++ {
		if r := p.Step(nil, nil); r.Valid {
			out = append(out, r)
		}
	}
	return out
}

// firstLevel reduces the n raw bits to ceil(n/2) candidates.
func firstLevel(v bitvec.Vector) []candidate {
	n := v.Len()
	out := make([]candidate, (n+1)/2)
	for i := 0; i < len(out); i++ {
		l := 2 * i
		switch {
		case v.Get(l):
			out[i] = candidate{index: int32(l), valid: true}
		case l+1 < n && v.Get(l+1):
			out[i] = candidate{index: int32(l + 1), valid: true}
		}
	}
	return out
}

// reduceLevel halves the candidate array, preferring the left (lower-index)
// candidate — exactly the hardware mux tree.
func reduceLevel(in []candidate) []candidate {
	if len(in) <= 1 {
		return in
	}
	out := make([]candidate, (len(in)+1)/2)
	for i := 0; i < len(out); i++ {
		l := 2 * i
		if in[l].valid {
			out[i] = in[l]
		} else if l+1 < len(in) {
			out[i] = in[l+1]
		}
	}
	return out
}

func finalIndex(c []candidate) int {
	// After all levels, at most one candidate remains (the array may still
	// have length >1 if n is small relative to stages; reduce fully).
	for len(c) > 1 {
		c = reduceLevel(c)
	}
	if len(c) == 1 && c[0].valid {
		return int(c[0].index)
	}
	return NoMatch
}
