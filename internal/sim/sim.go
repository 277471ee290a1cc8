// Package sim drives classification engines over packet traces: a
// goroutine-parallel batch harness for software throughput, Drive, the one
// load driver for the serving layer, and cycle-accounted runs of the
// hardware-accurate models (the StrideBV dual-port pipeline and the SRL16E
// TCAM), from which hardware throughput at a given clock follows directly.
package sim

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"pktclass/internal/core"
	"pktclass/internal/packet"
	"pktclass/internal/stridebv"
)

// BatchResult summarizes a software classification run.
type BatchResult struct {
	Results []int
	Packets int
	Elapsed time.Duration
	Workers int
	// PacketsPerSec is the measured software classification rate.
	PacketsPerSec float64
}

// ClassifyBatch classifies the trace with the engine, fanning the work out
// over workers goroutines (0 selects GOMAXPROCS). Each worker drives its
// whole chunk through the engine's native batch path when it has one
// (core.BatchClassifier), so the per-packet cost is the algorithm, not
// interface dispatch or allocator traffic. The engine's Classify must be
// safe for concurrent use; every engine in this repository is, because
// classification only reads the built structures. A core.Cached engine
// routes every worker through its one flow cache the same way (the
// cache's locked batch path is concurrency-safe), so flow-cached throughput is
// measured by wrapping the engine before the call.
func ClassifyBatch(eng core.Engine, trace []packet.Header, workers int) BatchResult {
	if len(trace) == 0 {
		// No work: report zero packets over zero workers rather than
		// spinning up goroutines on degenerate chunk math.
		return BatchResult{Results: []int{}}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(trace) {
		workers = len(trace)
	}
	results := make([]int, len(trace))
	start := time.Now()
	var wg sync.WaitGroup
	off := 0
	for _, c := range Split(trace, workers) {
		wg.Add(1)
		go func(c []packet.Header, res []int) {
			defer wg.Done()
			core.ClassifyBatchInto(eng, c, res)
		}(c, results[off:off+len(c)])
		off += len(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	r := BatchResult{Results: results, Packets: len(trace), Elapsed: elapsed, Workers: workers}
	if elapsed > 0 {
		r.PacketsPerSec = float64(len(trace)) / elapsed.Seconds()
	}
	return r
}

// Split cuts trace into contiguous chunks of ceil(len/n) packets, at most
// n of them: ClassifyBatch's per-worker shares, and the feeds of a Drive
// replay measured against it.
func Split(trace []packet.Header, n int) [][]packet.Header {
	if n < 1 {
		return nil
	}
	var chunks [][]packet.Header
	chunk := (len(trace) + n - 1) / n
	for lo := 0; lo < len(trace); lo += chunk {
		chunks = append(chunks, trace[lo:min(lo+chunk, len(trace))])
	}
	return chunks
}

// HardwareRun is the outcome of a cycle-accurate engine simulation.
type HardwareRun struct {
	Results []int
	Cycles  int64
	// PacketsPerCycle is the sustained issue rate (2.0 for the dual-port
	// StrideBV pipeline at steady state, 1.0 for TCAM).
	PacketsPerCycle float64
	// LatencyCycles is the packet latency through the engine.
	LatencyCycles int
}

// RunStrideBVPipeline clocks a trace through the cycle-accurate dual-port
// StrideBV pipeline.
func RunStrideBVPipeline(eng *stridebv.Engine, trace []packet.Header) (HardwareRun, error) {
	if len(trace) == 0 {
		return HardwareRun{}, fmt.Errorf("sim: empty trace")
	}
	p := stridebv.NewPipeline(eng)
	keys := make([]packet.Key, len(trace))
	for i, h := range trace {
		keys[i] = h.Key()
	}
	results, cycles := p.Run(keys)
	return HardwareRun{
		Results:         results,
		Cycles:          cycles,
		PacketsPerCycle: float64(len(trace)) / float64(cycles),
		LatencyCycles:   p.Latency(),
	}, nil
}

// CycleSearcher is the cycle-accounted TCAM interface (satisfied by
// tcam.FPGA).
type CycleSearcher interface {
	Classify(h packet.Header) int
	Cycle() int64
}

// RunTCAM drives a trace through a cycle-accounted TCAM.
func RunTCAM(t CycleSearcher, trace []packet.Header) (HardwareRun, error) {
	if len(trace) == 0 {
		return HardwareRun{}, fmt.Errorf("sim: empty trace")
	}
	start := t.Cycle()
	results := make([]int, len(trace))
	for i, h := range trace {
		results[i] = t.Classify(h)
	}
	cycles := t.Cycle() - start
	return HardwareRun{
		Results:         results,
		Cycles:          cycles,
		PacketsPerCycle: float64(len(trace)) / float64(cycles),
		LatencyCycles:   1, // compare + registered priority encode
	}, nil
}
