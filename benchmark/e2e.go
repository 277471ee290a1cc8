package main

import (
	"runtime"
	"sort"
	"time"

	"pktclass/internal/serve"
)

// A run sets the stack up at least minColdStarts times, and goes on, up to
// maxColdStarts, until setUpFor has passed: a 2 ms set-up needs more
// repeats than a 350 ms one for its median to hold still. setup_s is the
// median; the last service is the one the window drives.
const (
	minColdStarts = 5
	maxColdStarts = 40
	setUpFor      = 500 * time.Millisecond
)

// result is what one run of one workload reports.
type result struct {
	Workload  string             `json:"workload"`
	Digest    string             `json:"digest"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Samples   int                `json:"latency_samples,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
}

// setUp cold-starts the stack repeatedly, keeps the last service and reports
// the median start and the live heap behind the kept service.
func (sp spec) setUp(in *inputs, seed int64, o stackOpts) (svc *serve.Service, setupS, heapMB float64, err error) {
	var starts []float64
	begin := time.Now()
	for i := 0; i < minColdStarts || (i < maxColdStarts && time.Since(begin) < setUpFor); i++ {
		if svc != nil {
			closeService(svc)
		}
		var st *startTimes
		if svc, st, err = sp.coldStart(in, seed, o); err != nil {
			return nil, 0, 0, err
		}
		starts = append(starts, st.total.Seconds())
	}
	// Twice: the first cycle only moves the closed services' sync.Pool
	// scratch to the pools' victim caches, the second frees it.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return svc, median(starts), float64(ms.HeapAlloc) / (1 << 20), nil
}

// runE2E is the untraced end-to-end run: timed set-up, untimed traffic
// generation, one warm-up pass, runtime.GC, then the measured window with
// `clients` closed-loop callers.
func runE2E(sp spec, seed int64, d time.Duration, o stackOpts) (*result, error) {
	in := sp.genRules(seed)
	svc, setupS, heapMB, err := sp.setUp(in, seed, o)
	if err != nil {
		return nil, err
	}
	defer closeService(svc)
	if err := sp.genTraffic(in, seed); err != nil {
		return nil, err
	}
	l := newLoad(sp, in, svc, clients, nil)
	warmFailed := l.warm()
	w := l.measure(d)

	res := &result{
		Workload:  sp.name,
		Digest:    in.digest(),
		Attempted: w.calls + w.swaps,
		Failed:    w.failed + warmFailed,
		Samples:   len(w.lat),
		Metrics: map[string]float64{
			"setup_s":      setupS,
			"pkts_per_s":   w.pktsPerS,
			"batch_p50_us": w.p50us,
			"batch_p95_us": w.p95us,
			"batch_p99_us": w.p99us,
			"heap_mb":      heapMB,
		},
	}
	if sp.churn {
		res.Metrics["swap_p50_us"] = quantile(w.swap, 0.50) / 1e3
		res.Metrics["swap_p99_us"] = quantile(w.swap, 0.99) / 1e3
		a, f := l.verifyAfter(seed + 7)
		res.Attempted += a
		res.Failed += f
	}
	res.Metrics["fail_frac"] = float64(res.Failed) / float64(res.Attempted)
	return res, nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
