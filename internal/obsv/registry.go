package obsv

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value with high-water tracking.
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Set stores the value and raises the high-water mark when exceeded. The
// mark is raised with a CAS loop *before* the value is stored, so a
// concurrent snapshot can never observe Value() > Max(): once a value is
// visible, the mark already covers it.
func (g *Gauge) Set(v int64) {
	raiseMax(&g.max, v)
	g.v.Store(v)
}

// Value returns the last stored value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Max returns the high-water mark across all Set calls.
func (g *Gauge) Max() int64 { return g.max.Load() }

// raiseMax lifts *max to at least v with a CAS loop, the lock-free
// high-water update shared by Gauge and Histogram. A plain
// load-compare-store here would let two racing writers each observe the
// old mark and the smaller one win the final store — the mark must only
// ever move up, so losing the CAS means re-reading a mark some other
// writer raised.
//
//pclass:hotpath
func raiseMax(max *atomic.Int64, v int64) {
	for {
		m := max.Load()
		if v <= m || max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Registry is the one registry of live instruments: named counters,
// gauges and histograms, safe for concurrent registration and lookup. The
// instruments themselves are lock-free, and the zero value is ready to
// use. Names are namespaced per instrument kind, so a counter and a gauge
// may share a name without colliding.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// instrument returns the named entry of one kind's map, creating the map
// and the instrument on first use.
func instrument[T any](r *Registry, m *map[string]*T, name string) *T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if *m == nil {
		*m = make(map[string]*T)
	}
	v, ok := (*m)[name]
	if !ok {
		v = new(T)
		(*m)[name] = v
	}
	return v
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter { return instrument(r, &r.counters, name) }

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge { return instrument(r, &r.gauges, name) }

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram { return instrument(r, &r.hists, name) }

// GaugeSnapshot is one gauge's point-in-time reading.
type GaugeSnapshot struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

// Snapshot is a point-in-time view of every registered instrument, read
// in one pass under the registration lock, so an instrument registered
// mid-snapshot appears in all of it or none of it.
type Snapshot struct {
	Counters   map[string]int64         `json:"counters"`
	Gauges     map[string]GaugeSnapshot `json:"gauges"`
	Histograms map[string]HistSnapshot  `json:"histograms"`
}

// Snapshot captures every registered instrument.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]GaugeSnapshot, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		// Value read before Max: Set raises the mark before storing the
		// value, so any value this read observes is already covered by the
		// mark, and the snapshot entry always satisfies Max >= Value.
		v := g.Value()
		s.Gauges[name] = GaugeSnapshot{Value: v, Max: g.Max()}
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// Obs bundles the wired instrument set the serving stack records into: the
// registry every instrument is exported from, the sampled packet tracer,
// and the named histograms of the hot phases. A nil *Obs disables
// observability entirely (the serving layer carries one branch per batch).
type Obs struct {
	Reg    *Registry
	Tracer *Tracer

	// SubmitWait is the queue latency: Submit accept to worker dequeue.
	SubmitWait *Histogram
	// ClassifyBatch is the worker's engine time per batch.
	ClassifyBatch *Histogram
	// CacheProbe is the flow-cache probe phase (per batch on the batched
	// path, per lookup on the single-packet path).
	CacheProbe *Histogram
	// SwapBuild, SwapVerify and SwapTotal split a hot-swap into its shadow
	// build, differential verify, and end-to-end commit phases.
	SwapBuild  *Histogram
	SwapVerify *Histogram
	SwapTotal  *Histogram
	// SwapIncremental and SwapIncVerify time the O(delta) path: the engine
	// delta apply, and its scoped (touched rules + spot checks) verify.
	// Comparing SwapIncremental against SwapBuild is the direct incremental
	// vs rebuild readout.
	SwapIncremental *Histogram
	SwapIncVerify   *Histogram
	// SteerScatter is the steered dispatch phase per submitted batch: flow
	// hashing, per-worker gather, and the queue sends — the gather/scatter
	// overhead the RSS-style path pays that the legacy path does not.
	SteerScatter *Histogram

	// Journal is the control-plane event ring every swap/rollback/fallback/
	// retirement transition is appended to (served at /eventz). Always
	// non-nil on an Obs built by NewObs; nil-safe like the Tracer.
	Journal *Journal
}

// Histogram names the serving layer registers in its Obs registry.
const (
	HistSubmitWait    = "serve.submit_wait"
	HistClassifyBatch = "serve.classify_batch"
	HistCacheProbe    = "flowcache.probe"
	HistSwapBuild     = "serve.swap_build"
	HistSwapVerify    = "serve.swap_verify"
	HistSwapTotal     = "serve.swap_total"

	HistSwapIncremental = "serve.swap_incremental"
	HistSwapIncVerify   = "serve.swap_inc_verify"
	HistSteerScatter    = "serve.steer_scatter"
)

// NewObs builds the serving instrument set in reg (nil allocates a fresh
// registry). tracer may be nil (histograms on, tracing off).
func NewObs(reg *Registry, tracer *Tracer) *Obs {
	if reg == nil {
		reg = new(Registry)
	}
	return &Obs{
		Reg:           reg,
		Tracer:        tracer,
		SubmitWait:    reg.Histogram(HistSubmitWait),
		ClassifyBatch: reg.Histogram(HistClassifyBatch),
		CacheProbe:    reg.Histogram(HistCacheProbe),
		SwapBuild:     reg.Histogram(HistSwapBuild),
		SwapVerify:    reg.Histogram(HistSwapVerify),
		SwapTotal:     reg.Histogram(HistSwapTotal),

		SwapIncremental: reg.Histogram(HistSwapIncremental),
		SwapIncVerify:   reg.Histogram(HistSwapIncVerify),
		SteerScatter:    reg.Histogram(HistSteerScatter),

		Journal: NewJournal(0),
	}
}
