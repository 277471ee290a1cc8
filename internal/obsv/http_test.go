package obsv

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// --- a minimal Prometheus text-format (0.0.4) lexer, stdlib only ---------

type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// lexProm parses Prometheus text exposition: # TYPE / # HELP comments and
// `name{label="v",...} value` samples. It returns the samples and the TYPE
// declarations, failing the test on any syntax violation — this is the
// contract a real scraper holds /metrics to.
func lexProm(t *testing.T, text string) ([]promSample, map[string]string) {
	t.Helper()
	var samples []promSample
	types := make(map[string]string)
	validName := func(s string) bool {
		if s == "" {
			return false
		}
		for i := 0; i < len(s); i++ {
			c := s[i]
			ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9')
			if !ok {
				return false
			}
		}
		return true
	}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) < 2 || (f[1] != "TYPE" && f[1] != "HELP") {
				t.Fatalf("line %d: malformed comment %q", ln+1, line)
			}
			if f[1] == "TYPE" {
				if len(f) != 4 {
					t.Fatalf("line %d: TYPE needs name and kind: %q", ln+1, line)
				}
				name, kind := f[2], f[3]
				if !validName(name) {
					t.Fatalf("line %d: invalid metric name %q", ln+1, name)
				}
				switch kind {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					t.Fatalf("line %d: unknown TYPE %q", ln+1, kind)
				}
				if prev, dup := types[name]; dup && prev != kind {
					t.Fatalf("line %d: conflicting TYPE for %s: %s then %s", ln+1, name, prev, kind)
				}
				types[name] = kind
			}
			continue
		}
		// Sample line: name[{labels}] value
		rest := line
		brace := strings.IndexByte(rest, '{')
		var name string
		labels := make(map[string]string)
		if brace >= 0 {
			name = rest[:brace]
			end := strings.IndexByte(rest, '}')
			if end < brace {
				t.Fatalf("line %d: unterminated label set: %q", ln+1, line)
			}
			for _, pair := range strings.Split(rest[brace+1:end], ",") {
				if pair == "" {
					continue
				}
				k, v, ok := strings.Cut(pair, "=")
				if !ok || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
					t.Fatalf("line %d: malformed label %q", ln+1, pair)
				}
				labels[k] = v[1 : len(v)-1]
			}
			rest = strings.TrimSpace(rest[end+1:])
		} else {
			sp := strings.IndexByte(rest, ' ')
			if sp < 0 {
				t.Fatalf("line %d: no value: %q", ln+1, line)
			}
			name = rest[:sp]
			rest = strings.TrimSpace(rest[sp:])
		}
		if !validName(name) {
			t.Fatalf("line %d: invalid metric name %q", ln+1, name)
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(rest, "+"), 64)
		if err != nil && rest != "+Inf" && rest != "-Inf" && rest != "NaN" {
			t.Fatalf("line %d: bad value %q: %v", ln+1, rest, err)
		}
		samples = append(samples, promSample{name: name, labels: labels, value: v})
	}
	return samples, types
}

func findSample(samples []promSample, name string) (promSample, bool) {
	for _, s := range samples {
		if s.name == name {
			return s, true
		}
	}
	return promSample{}, false
}

// --- end lexer -----------------------------------------------------------

func newTestServer(t *testing.T) (*Server, *Obs) {
	t.Helper()
	reg := new(Registry)
	tracer := NewTracer(1, 8)
	obs := NewObs(reg, tracer)
	srv := NewServer(reg, tracer)
	return srv, obs
}

func TestMetricsEndpointParses(t *testing.T) {
	srv, obs := newTestServer(t)
	obs.Reg.Counter("serve.classified").Add(12345)
	obs.Reg.Gauge("serve.depth").Set(3)
	obs.Reg.Counter("serve.swap_ns").Add(int64(2 * time.Millisecond))
	obs.Reg.Gauge("serve.swap_last_ns").Set(int64(2 * time.Millisecond))
	for i := 0; i < 100; i++ {
		obs.ClassifyBatch.ObserveNanos(int64(1000 + i*10))
	}
	srv.AddGaugeFunc(`serve.shard_depth{shard="0"}`, func() float64 { return 4 })
	srv.AddGaugeFunc(`serve.shard_depth{shard="1"}`, func() float64 { return 9 })

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content-type %q", ct)
	}
	body := rec.Body.String()
	samples, types := lexProm(t, body)

	c, ok := findSample(samples, "pclass_serve_classified")
	if !ok || c.value != 12345 {
		t.Fatalf("counter sample = %+v (ok=%v)", c, ok)
	}
	if types["pclass_serve_classified"] != "counter" {
		t.Fatalf("counter TYPE = %q", types["pclass_serve_classified"])
	}
	if g, ok := findSample(samples, "pclass_serve_depth"); !ok || g.value != 3 {
		t.Fatalf("gauge sample = %+v", g)
	}
	if s, ok := findSample(samples, "pclass_serve_swap_ns"); !ok || s.value != 2e6 || types["pclass_serve_swap_ns"] != "counter" {
		t.Fatalf("swap_ns sample = %+v (TYPE %q)", s, types["pclass_serve_swap_ns"])
	}
	if s, ok := findSample(samples, "pclass_serve_swap_last_ns_max"); !ok || s.value != 2e6 || types["pclass_serve_swap_last_ns_max"] != "gauge" {
		t.Fatalf("swap_last_ns_max sample = %+v (TYPE %q)", s, types["pclass_serve_swap_last_ns_max"])
	}
	if types["pclass_serve_classify_batch_seconds"] != "histogram" {
		t.Fatalf("histogram TYPE = %q", types["pclass_serve_classify_batch_seconds"])
	}
	// Histogram invariants: cumulative buckets end at +Inf == count.
	var lastBucket, count float64
	var sawInf bool
	prev := -1.0
	for _, s := range samples {
		switch s.name {
		case "pclass_serve_classify_batch_seconds_bucket":
			if s.labels["le"] == "+Inf" {
				sawInf = true
				lastBucket = s.value
				continue
			}
			if s.value < prev {
				t.Fatalf("bucket counts not cumulative: %g after %g", s.value, prev)
			}
			prev = s.value
		case "pclass_serve_classify_batch_seconds_count":
			count = s.value
		}
	}
	if !sawInf || lastBucket != 100 || count != 100 {
		t.Fatalf("histogram totals: inf=%v lastBucket=%g count=%g", sawInf, lastBucket, count)
	}
	// Labeled gauge funcs share one TYPE line (the lexer rejects conflicts)
	// and both series surface.
	var shardVals []float64
	for _, s := range samples {
		if s.name == "pclass_serve_shard_depth" {
			shardVals = append(shardVals, s.value)
		}
	}
	if len(shardVals) != 2 {
		t.Fatalf("shard gauge series = %v", shardVals)
	}
	if strings.Count(body, "# TYPE pclass_serve_shard_depth gauge") != 1 {
		t.Fatal("labeled gauge family emitted multiple TYPE lines")
	}
}

func TestStatuszEndpoint(t *testing.T) {
	srv, obs := newTestServer(t)
	obs.Reg.Counter("serve.classified").Add(7)
	obs.SubmitWait.ObserveNanos(1500)
	obs.SubmitWait.ObserveNanos(2500)
	srv.AddStatus("ruleset", func() any { return map[string]int{"rules": 512} })
	srv.AddGaugeFunc("cache.size", func() float64 { return 99 })

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/statusz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("statusz not JSON: %v\n%s", err, rec.Body.String())
	}
	for _, key := range []string{"uptime_sec", "goroutines", "counters", "histograms", "tracer", "ruleset", "gauge_funcs"} {
		if _, ok := doc[key]; !ok {
			t.Fatalf("statusz missing %q: %s", key, rec.Body.String())
		}
	}
	var hists map[string]histStatus
	if err := json.Unmarshal(doc["histograms"], &hists); err != nil {
		t.Fatal(err)
	}
	hw, ok := hists[HistSubmitWait]
	if !ok || hw.Count != 2 || hw.P50 < 1500 || hw.Max != 2500 {
		t.Fatalf("submit_wait digest = %+v (ok=%v)", hw, ok)
	}
}

func TestTracezEndpoint(t *testing.T) {
	srv, obs := newTestServer(t)
	for i := 0; i < 3; i++ {
		_, tr := obs.Tracer.SampleBatch(1)
		tr.SetEngine("tcam")
		tr.AddHop(HopTCAMSearch, 0, 2)
		tr.AddHop(HopPriorityEncode, 0, int64(i))
		tr.Result = i
		obs.Tracer.Finish(tr)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/tracez", nil))
	body := rec.Body.String()
	for _, want := range []string{"sampling 1/1", "tcam-search", "priority-encode"} {
		if !strings.Contains(body, want) {
			t.Fatalf("tracez missing %q:\n%s", want, body)
		}
	}

	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/tracez?format=json&n=2", nil))
	var doc struct {
		Tracer TracerStats  `json:"tracer"`
		Traces []tracezJSON `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("tracez json: %v", err)
	}
	if len(doc.Traces) != 2 {
		t.Fatalf("n=2 returned %d traces", len(doc.Traces))
	}
	if doc.Tracer.Sampled != 3 {
		t.Fatalf("tracer stats = %+v", doc.Tracer)
	}
	if len(doc.Traces[0].Hops) != 2 || doc.Traces[0].Hops[0].Kind != HopTCAMSearch {
		t.Fatalf("trace hops = %+v", doc.Traces[0].Hops)
	}

	// ?n= parses like /eventz and /topflows: a limit in [0, len) trims, a
	// larger one or junk serves every trace.
	for _, tc := range []struct {
		n    string
		want int
	}{{"0", 0}, {"1", 1}, {"junk", 3}, {"-1", 3}, {"3", 3}, {"99", 3}} {
		rec = httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/tracez?format=json&n="+tc.n, nil))
		doc.Traces = nil
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("n=%s: tracez json: %v", tc.n, err)
		}
		if len(doc.Traces) != tc.want {
			t.Fatalf("n=%s returned %d traces, want %d", tc.n, len(doc.Traces), tc.want)
		}
	}
}

func TestTracezDisabledMessage(t *testing.T) {
	srv := NewServer(nil, nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/tracez", nil))
	if !strings.Contains(rec.Body.String(), "tracing disabled") {
		t.Fatalf("tracez body = %q", rec.Body.String())
	}
}

func TestPprofEndpointsWired(t *testing.T) {
	srv, _ := newTestServer(t)
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s status %d", path, rec.Code)
		}
	}
	// The goroutine profile exercises the non-CPU profile path end to end.
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/goroutine?debug=1", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Fatalf("goroutine profile: status %d", rec.Code)
	}
}

func TestServerStartShutdown(t *testing.T) {
	srv, obs := newTestServer(t)
	obs.Reg.Counter("up").Inc()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(t.Context())
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}
