package stridebv

import (
	"fmt"

	"pktclass/internal/packet"
)

// Parallel is the multi-pipeline StrideBV configuration the paper defers
// as future work ("The combination is not explored here in this paper,
// but can be done to achieve 400G+ throughput", Section IV-A2; Section V-B
// gives the memory accounting: two lanes share one dual-ported stage
// memory, so L lanes need ceil(L/2) memory copies).
//
// Functionally every lane is the same classifier; Parallel stripes a
// packet stream across lanes and preserves per-packet result order.
type Parallel struct {
	lanes     int
	pipelines []*Pipeline // one per memory copy; each carries 2 lanes
	eng       *Engine
}

// NewParallel builds an L-lane configuration over one logical engine.
// The engine's stage memories are shared read-only across lanes, exactly
// like the replicated hardware copies hold identical contents.
func NewParallel(e *Engine, lanes int) (*Parallel, error) {
	if lanes < 1 || lanes > 64 {
		return nil, fmt.Errorf("stridebv: lane count %d outside [1,64]", lanes)
	}
	copies := (lanes + Ports - 1) / Ports
	p := &Parallel{lanes: lanes, eng: e}
	for i := 0; i < copies; i++ {
		p.pipelines = append(p.pipelines, NewPipeline(e))
	}
	return p, nil
}

// Lanes returns the packet lane count.
func (p *Parallel) Lanes() int { return p.lanes }

// MemoryCopies returns how many physical stage-memory instances the
// configuration needs: ceil(lanes/2) (dual-ported sharing).
func (p *Parallel) MemoryCopies() int { return len(p.pipelines) }

// MemoryBits returns the total stage-memory requirement across copies —
// the paper's "multiplication factor" accounting (6 lanes -> factor 3).
func (p *Parallel) MemoryBits() int { return p.eng.MemoryBits() * p.MemoryCopies() }

// Run clocks a trace through the lane array: each cycle issues up to
// `lanes` packets (2 per pipeline copy). It returns per-packet rule
// results in input order and the cycle count.
func (p *Parallel) Run(keys []packet.Key) (results []int, cycles int64) {
	results = make([]int, len(keys))
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
	next := 0
	var maxCycles int64
	for next < len(keys) {
		for _, pipe := range p.pipelines {
			batch := make([]Input, 0, Ports)
			for j := 0; j < Ports && next < len(keys); j++ {
				batch = append(batch, Input{Key: keys[next], Token: next})
				next++
			}
			emit(pipe.Step(batch))
		}
	}
	for _, pipe := range p.pipelines {
		emit(pipe.Drain())
		if c := pipe.Cycle(); c > maxCycles {
			maxCycles = c
		}
	}
	return results, maxCycles
}

// String summarises the configuration.
func (p *Parallel) String() string {
	return fmt.Sprintf("stridebv-parallel{lanes=%d copies=%d k=%d mem=%dKbit}",
		p.lanes, p.MemoryCopies(), p.eng.Stride(), p.MemoryBits()/1024)
}
