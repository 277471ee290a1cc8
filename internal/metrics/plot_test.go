package metrics

import (
	"strings"
	"testing"
)

func demoFigure() *Figure {
	f := NewFigure("demo", "Gbps")
	a := f.AddSeries("fast")
	b := f.AddSeries("slow")
	for i, n := range []int{32, 64, 128, 256} {
		a.Add(n, 100-float64(i)*20)
		b.Add(n, 20-float64(i)*4)
	}
	return f
}

func TestASCIIPlot(t *testing.T) {
	f := demoFigure()
	s := f.ASCIIPlot(10)
	if !strings.Contains(s, "demo") || !strings.Contains(s, "fast") || !strings.Contains(s, "slow") {
		t.Fatalf("plot missing pieces:\n%s", s)
	}
	// The tallest bar must reach the top row; the shortest must not.
	lines := strings.Split(s, "\n")
	top := lines[1]
	if !strings.Contains(top, "*") {
		t.Fatalf("max series not at top row:\n%s", s)
	}
	if strings.Contains(top, "o") {
		t.Fatalf("small series reaches top row:\n%s", s)
	}
	// Height floor.
	if tiny := f.ASCIIPlot(1); strings.Count(tiny, "\n") < 6 {
		t.Fatalf("height floor not applied:\n%s", tiny)
	}
}

func TestASCIIPlotEmpty(t *testing.T) {
	f := NewFigure("empty", "x")
	if s := f.ASCIIPlot(8); !strings.Contains(s, "no data") {
		t.Fatalf("empty figure plot: %q", s)
	}
}

// histogramFigure is a latency histogram drawn as a figure: one "count"
// series whose N axis is log-spaced bucket upper bounds in nanoseconds,
// spanning the six orders of magnitude between a cache probe and a
// hot-swap.
func histogramFigure() *Figure {
	f := NewFigure("serve.classify_batch", "samples")
	s := f.AddSeries("count")
	for i, upper := range []int{64, 512, 4096, 32768, 262144, 2097152, 16777216} {
		// A latency histogram's usual shape: a tall body and a thin tail.
		s.Add(upper, float64([]int{3, 40, 900, 4100, 350, 12, 1}[i]))
	}
	return f
}

func TestASCIIPlotHistogramSeries(t *testing.T) {
	f := histogramFigure()
	s := f.ASCIIPlot(12)
	if !strings.Contains(s, "serve.classify_batch") || !strings.Contains(s, "count") {
		t.Fatalf("histogram plot missing pieces:\n%s", s)
	}
	lines := strings.Split(s, "\n")
	// Only the modal bucket (4100 samples) reaches the top row; the tail
	// buckets must still be visible somewhere above the axis.
	if n := strings.Count(lines[1], "*"); n != 1 {
		t.Fatalf("top row has %d bars, want only the modal bucket:\n%s", n, s)
	}
	bottom := lines[len(lines)-5] // last grid row before the axis
	if n := strings.Count(bottom, "*"); n != 7 {
		t.Fatalf("bottom row shows %d of 7 buckets:\n%s", n, s)
	}
	// Bucket-upper labels on the axis get truncated to the column width
	// (2 for a single series) rather than colliding.
	axis := lines[len(lines)-3]
	if len(axis) > 10+2*7 {
		t.Fatalf("axis row wider than 7 two-char columns: %q", axis)
	}
}

func TestLogASCIIPlotHistogramSeries(t *testing.T) {
	// Counts spanning 1..4100 flatten to near-invisibility on a linear
	// scale; the log plot must keep the thin-tail buckets visible. The
	// smallest count defines the log floor and renders at zero height, so
	// 6 of the 7 buckets show on the bottom row.
	f := histogramFigure()
	s := f.LogASCIIPlot(8)
	if !strings.Contains(s, "log scale") {
		t.Fatalf("histogram figure not log scaled:\n%s", s)
	}
	lines := strings.Split(s, "\n")
	bottom := lines[len(lines)-4] // last grid row before the axis
	if n := strings.Count(bottom, "*"); n != 6 {
		t.Fatalf("log plot bottom row shows %d of 7 buckets, want 6 (floor bucket at zero height):\n%s", n, s)
	}
}

func TestHistogramFigureMarkdown(t *testing.T) {
	md := histogramFigure().Markdown()
	for _, want := range []string{"**serve.classify_batch**", "| count |", "| 4096 |", "4100"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestLogASCIIPlot(t *testing.T) {
	f := NewFigure("log demo", "mW/Gbps")
	a := f.AddSeries("huge")
	b := f.AddSeries("tiny")
	for _, n := range []int{32, 64} {
		a.Add(n, 1000)
		b.Add(n, 1)
	}
	s := f.LogASCIIPlot(8)
	if !strings.Contains(s, "log scale") {
		t.Fatalf("not log scaled:\n%s", s)
	}
	// Both series visible despite 3 orders of magnitude.
	if !strings.Contains(s, "*") || !strings.Contains(s, "o") {
		t.Fatalf("series lost on log plot:\n%s", s)
	}
	// All-zero figure falls back to linear.
	z := NewFigure("zeros", "x")
	z.AddSeries("z").Add(1, 0)
	if s := z.LogASCIIPlot(8); s == "" {
		t.Fatal("fallback plot empty")
	}
}
