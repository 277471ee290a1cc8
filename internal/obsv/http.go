package obsv

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"pktclass/internal/obsv/flowstats"
)

// Server is the stdlib-only exposition surface:
//
//	/metrics        Prometheus text format (counters, gauges, histograms,
//	                dynamic engine self-stats)
//	/statusz        JSON snapshot (instruments, quantiles, status
//	                providers, tracer accounting)
//	/tracez         the sampled packet-trace ring, text or ?format=json
//	/topflows       the heavy-hitter detector's merged top-K flow table
//	/eventz         the control-plane event journal, newest first
//	/debug/pprof/*  the runtime profiler endpoints
//
// Collectors (dynamic gauges, status providers) are registered before
// Start; the handler itself is safe for concurrent scrapes.
type Server struct {
	reg    *Registry
	tracer *Tracer

	mu        sync.Mutex
	gaugeFns  []GaugeFunc
	statusFns map[string]func() any
	topFn     func(n int) flowstats.Report
	journal   *Journal
	start     time.Time

	httpSrv *http.Server
	lis     net.Listener
}

// NewServer builds the exposition server over a registry and an optional
// tracer (nil disables /tracez content, the endpoint still serves).
func NewServer(reg *Registry, tracer *Tracer) *Server {
	if reg == nil {
		reg = new(Registry)
	}
	return &Server{reg: reg, tracer: tracer, statusFns: make(map[string]func() any), start: time.Now()}
}

// AddGaugeFunc registers a dynamic gauge evaluated at scrape time. The
// name may carry a literal label set: `serve.shard_depth{shard="3"}`.
func (s *Server) AddGaugeFunc(name string, fn func() float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gaugeFns = append(s.gaugeFns, GaugeFunc{Name: name, Fn: fn})
}

// AddStatus registers a named /statusz section provider; the returned
// value is marshalled as JSON at snapshot time.
func (s *Server) AddStatus(name string, fn func() any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.statusFns[name] = fn
}

// SetTopFlows wires the /topflows provider — typically the service's
// flowstats Detector.Report. Nil (the default) serves an
// explanatory "detection off" page instead.
func (s *Server) SetTopFlows(fn func(n int) flowstats.Report) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.topFn = fn
}

// SetJournal wires the /eventz provider (typically Obs.Journal). Nil
// serves an explanatory "journaling off" page instead.
func (s *Server) SetJournal(j *Journal) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = j
}

// Handler builds the route mux. Exposed for tests and for embedding into
// an existing server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/tracez", s.handleTracez)
	mux.HandleFunc("/topflows", s.handleTopflows)
	mux.HandleFunc("/eventz", s.handleEventz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) collectors() ([]GaugeFunc, map[string]func() any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fns := make([]GaugeFunc, len(s.gaugeFns))
	copy(fns, s.gaugeFns)
	status := make(map[string]func() any, len(s.statusFns))
	for k, v := range s.statusFns {
		status[k] = v
	}
	return fns, status
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	fns, _ := s.collectors()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WriteProm(w, s.reg.Snapshot(), fns)
}

// histStatus is one histogram's /statusz digest.
type histStatus struct {
	Count int64   `json:"count"`
	MeanN float64 `json:"mean_ns"`
	P50   int64   `json:"p50_ns"`
	P90   int64   `json:"p90_ns"`
	P99   int64   `json:"p99_ns"`
	P999  int64   `json:"p999_ns"`
	Max   int64   `json:"max_ns"`
}

func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	fns, statusFns := s.collectors()
	snap := s.reg.Snapshot()
	hists := make(map[string]histStatus, len(snap.Histograms))
	for name, h := range snap.Histograms {
		hists[name] = histStatus{
			Count: h.Count,
			MeanN: h.Mean(),
			P50:   h.Quantile(0.50),
			P90:   h.Quantile(0.90),
			P99:   h.Quantile(0.99),
			P999:  h.Quantile(0.999),
			Max:   h.Max,
		}
	}
	doc := map[string]any{
		"uptime_sec": time.Since(s.start).Seconds(),
		"goroutines": runtime.NumGoroutine(),
		"counters":   snap.Counters,
		"gauges":     snap.Gauges,
		"histograms": hists,
		"tracer":     s.tracer.Stats(),
	}
	gauges := make(map[string]float64, len(fns))
	for _, gf := range fns {
		gauges[gf.Name] = gf.Fn()
	}
	if len(gauges) > 0 {
		doc["gauge_funcs"] = gauges
	}
	for name, fn := range statusFns {
		doc[name] = fn()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}

// tracezJSON is one trace in /tracez?format=json form (the fixed hop
// array trimmed to the recorded hops).
type tracezJSON struct {
	PacketTrace
	Hops []Hop `json:"hops"`
}

func (s *Server) handleTracez(w http.ResponseWriter, r *http.Request) {
	traces := s.tracer.Snapshot()
	if n := queryN(r, len(traces)); n < len(traces) {
		traces = traces[:n]
	}
	if r.URL.Query().Get("format") == "json" {
		out := make([]tracezJSON, len(traces))
		for i := range traces {
			out[i] = tracezJSON{PacketTrace: traces[i], Hops: append([]Hop(nil), traces[i].HopSlice()...)}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(map[string]any{"tracer": s.tracer.Stats(), "traces": out})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	st := s.tracer.Stats()
	if st.Every == 0 {
		w.Write([]byte("tracing disabled (run with a sample rate, e.g. pclass serve -sample 1024)\n"))
		return
	}
	sort.Slice(traces, func(i, j int) bool { return traces[i].Seq > traces[j].Seq })
	header := "sampling 1/" + strconv.FormatInt(st.Every, 10) +
		"  packets=" + strconv.FormatInt(st.Packets, 10) +
		"  sampled=" + strconv.FormatInt(st.Sampled, 10) +
		"  busy-drops=" + strconv.FormatInt(st.Busy, 10) + "\n\n"
	w.Write([]byte(header))
	for i := range traces {
		w.Write([]byte(traces[i].String()))
		w.Write([]byte("\n\n"))
	}
}

// queryN parses a non-negative ?n= limit (def when absent or invalid).
func queryN(r *http.Request, def int) int {
	if v := r.URL.Query().Get("n"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 {
			return n
		}
	}
	return def
}

func (s *Server) handleTopflows(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	topFn := s.topFn
	s.mu.Unlock()
	if topFn == nil {
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte("{}\n"))
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("flow detection disabled (run an observed service with TopFlows >= 0, e.g. pclass serve -obsv ...)\n"))
		return
	}
	rep := topFn(queryN(r, 16))
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(rep)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "packets=%d  workers=%d  k=%d  top-share=%.1f%%\n\n",
		rep.Packets, rep.Workers, rep.K, 100*rep.TopShare)
	fmt.Fprintf(w, "%-4s %-12s %-8s %-6s %-16s %s\n", "rank", "count", "share", "worker", "hash", "flow")
	for i, fc := range rep.Flows {
		fmt.Fprintf(w, "%-4d %-12d %-8s %-6d %016x %s\n",
			i+1, fc.Count, fmt.Sprintf("%.2f%%", 100*fc.Share), fc.Worker, fc.Hash, fc.Hdr)
	}
}

func (s *Server) handleEventz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j := s.journal
	s.mu.Unlock()
	if j == nil {
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte("{}\n"))
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("event journaling disabled (run an observed service, e.g. pclass serve -obsv ...)\n"))
		return
	}
	events := j.Snapshot()
	if n := queryN(r, len(events)); n < len(events) {
		events = events[:n]
	}
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(map[string]any{"journal": j.Stats(), "events": events})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	st := j.Stats()
	fmt.Fprintf(w, "appended=%d  dropped=%d  slots=%d\n\n", st.Appended, st.Dropped, st.Slots)
	for _, ev := range events {
		fmt.Fprintf(w, "%s\n", ev)
	}
}

// Start listens on addr and serves in a background goroutine; the returned
// address is the bound listener's (useful with :0). Stop with Shutdown.
func (s *Server) Start(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.lis = lis
	s.httpSrv = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go s.httpSrv.Serve(lis)
	return lis.Addr().String(), nil
}

// Shutdown stops the listener, waiting for in-flight scrapes up to the
// context deadline. No-op when never started.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.httpSrv == nil {
		return nil
	}
	return s.httpSrv.Shutdown(ctx)
}
