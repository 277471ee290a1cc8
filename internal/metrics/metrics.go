// Package metrics provides the small data model the experiment runners use
// to emit the paper's figures and tables as text: named series over the
// ruleset-size sweep, and fixed-width tables.
package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// Point is one (N, value) sample of a figure series.
type Point struct {
	N     int
	Value float64
}

// Series is one labeled curve of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Add appends a sample.
func (s *Series) Add(n int, v float64) {
	s.Points = append(s.Points, Point{N: n, Value: v})
}

// At returns the value at N, or NaN-free (0, false) when absent.
func (s *Series) At(n int) (float64, bool) {
	for _, p := range s.Points {
		if p.N == n {
			return p.Value, true
		}
	}
	return 0, false
}

// Figure is a set of series sharing the N axis.
type Figure struct {
	Title  string
	YLabel string
	Series []*Series
}

// NewFigure creates a figure.
func NewFigure(title, ylabel string) *Figure {
	return &Figure{Title: title, YLabel: ylabel}
}

// AddSeries creates, registers and returns a new series.
func (f *Figure) AddSeries(label string) *Series {
	s := &Series{Label: label}
	f.Series = append(f.Series, s)
	return s
}

// Ns returns the sorted union of N values across all series.
func (f *Figure) Ns() []int {
	set := map[int]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			set[p.N] = true
		}
	}
	out := make([]int, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// String renders the figure as a fixed-width data table (one row per N,
// one column per series) — the text equivalent of the paper's plots.
func (f *Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  [%s]\n", f.Title, f.YLabel)
	fmt.Fprintf(&b, "%-8s", "N")
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %22s", s.Label)
	}
	b.WriteByte('\n')
	for _, n := range f.Ns() {
		fmt.Fprintf(&b, "%-8d", n)
		for _, s := range f.Series {
			if v, ok := s.At(n); ok {
				fmt.Fprintf(&b, " %22.2f", v)
			} else {
				fmt.Fprintf(&b, " %22s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Markdown renders the figure as a GitHub-flavored markdown table.
func (f *Figure) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "**%s** (%s)\n\n", f.Title, f.YLabel)
	b.WriteString("| N |")
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %s |", s.Label)
	}
	b.WriteString("\n|---|")
	for range f.Series {
		b.WriteString("---|")
	}
	b.WriteByte('\n')
	for _, n := range f.Ns() {
		fmt.Fprintf(&b, "| %d |", n)
		for _, s := range f.Series {
			if v, ok := s.At(n); ok {
				fmt.Fprintf(&b, " %.2f |", v)
			} else {
				b.WriteString(" - |")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Table is a free-form fixed-width table (for Table I / Table II).
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row; cell counts must match the header.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Headers) {
		panic(fmt.Sprintf("metrics: row has %d cells, table has %d columns", len(cells), len(t.Headers)))
	}
	t.Rows = append(t.Rows, cells)
}

// String renders the table with per-column width fitting.
func (t *Table) String() string {
	w := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		w[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > w[i] {
				w[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s  ", w[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Markdown renders the table in GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.Title)
	}
	b.WriteString("| " + strings.Join(t.Headers, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Headers)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return b.String()
}
