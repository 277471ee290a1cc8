package obsv

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Prometheus text exposition (version 0.0.4), written with the standard
// library only. Instrument names use this repository's dotted convention
// ("serve.submit_wait"); the writer maps them to Prometheus metric names
// (pclass_serve_submit_wait) and renders durations in seconds, the
// Prometheus base unit.

// promName maps a registry name to a valid Prometheus metric name:
// characters outside [a-zA-Z0-9_:] become '_' and everything is rooted
// under the pclass_ namespace. An explicit {label="v"} suffix survives
// untouched.
func promName(name string) string {
	base, labels, _ := strings.Cut(name, "{")
	var b strings.Builder
	b.WriteString("pclass_")
	for i := 0; i < len(base); i++ {
		c := base[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == ':':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	out := b.String()
	if labels != "" {
		out += "{" + labels
	}
	return out
}

// GaugeFunc is a dynamically computed gauge: the exposition server calls
// fn at scrape time. The name may carry a literal label set
// (`queue_depth{shard="3"}`).
type GaugeFunc struct {
	Name string
	Fn   func() float64
}

// WriteProm renders the registry snapshot plus any dynamic gauges in
// Prometheus text format.
func WriteProm(w io.Writer, snap Snapshot, funcs []GaugeFunc) {
	// Counters.
	names := sortedKeys(snap.Counters)
	for _, name := range names {
		pn := promName(name)
		fmt.Fprintf(w, "# TYPE %s counter\n", pn)
		fmt.Fprintf(w, "%s %d\n", pn, snap.Counters[name])
	}
	// Gauges: instantaneous value plus the high-water mark.
	names = sortedKeys(snap.Gauges)
	for _, name := range names {
		g := snap.Gauges[name]
		pn := promName(name)
		fmt.Fprintf(w, "# TYPE %s gauge\n", pn)
		fmt.Fprintf(w, "%s %d\n", pn, g.Value)
		fmt.Fprintf(w, "# TYPE %s_max gauge\n", pn)
		fmt.Fprintf(w, "%s_max %d\n", pn, g.Max)
	}
	// Histograms: cumulative le buckets in seconds, Prometheus histogram
	// convention. Only non-empty buckets are emitted (the bound set is
	// fixed, so successive scrapes stay mergeable).
	names = sortedKeys(snap.Histograms)
	for _, name := range names {
		h := snap.Histograms[name]
		pn := promName(name) + "_seconds"
		fmt.Fprintf(w, "# TYPE %s histogram\n", pn)
		var cum uint64
		for b, c := range h.Buckets {
			if c == 0 {
				continue
			}
			cum += c
			fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", pn, float64(bucketUpper(b))/1e9, cum)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", pn, h.Count)
		fmt.Fprintf(w, "%s_sum %g\n", pn, float64(h.Sum)/1e9)
		fmt.Fprintf(w, "%s_count %d\n", pn, h.Count)
	}
	// Dynamic gauges (engine self-stats wired by the embedding binary),
	// grouped by family so labeled series like queue_depth{shard="0"} and
	// {shard="1"} share one TYPE header.
	var order []string
	byFamily := make(map[string][]GaugeFunc)
	for _, gf := range funcs {
		family, _, _ := strings.Cut(promName(gf.Name), "{")
		if _, ok := byFamily[family]; !ok {
			order = append(order, family)
		}
		byFamily[family] = append(byFamily[family], gf)
	}
	for _, family := range order {
		fmt.Fprintf(w, "# TYPE %s gauge\n", family)
		for _, gf := range byFamily[family] {
			fmt.Fprintf(w, "%s %g\n", promName(gf.Name), gf.Fn())
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
