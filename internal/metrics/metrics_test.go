package metrics

import (
	"strings"
	"testing"
)

func TestSeriesBasics(t *testing.T) {
	s := &Series{Label: "x"}
	s.Add(32, 1.5)
	s.Add(64, 2.5)
	if v, ok := s.At(32); !ok || v != 1.5 {
		t.Fatalf("At(32) = %v,%v", v, ok)
	}
	if _, ok := s.At(128); ok {
		t.Fatal("At(128) found a phantom point")
	}
}

func TestFigureRendering(t *testing.T) {
	f := NewFigure("Fig X: throughput vs rules", "Gbps")
	a := f.AddSeries("distram")
	b := f.AddSeries("tcam")
	a.Add(32, 100)
	a.Add(64, 90)
	b.Add(32, 20)
	// b has no point at 64: rendered as "-".
	ns := f.Ns()
	if len(ns) != 2 || ns[0] != 32 || ns[1] != 64 {
		t.Fatalf("Ns = %v", ns)
	}
	s := f.String()
	if !strings.Contains(s, "distram") || !strings.Contains(s, "tcam") {
		t.Fatalf("missing labels:\n%s", s)
	}
	if !strings.Contains(s, "-") {
		t.Fatalf("missing placeholder for absent point:\n%s", s)
	}
	md := f.Markdown()
	if !strings.Contains(md, "| N |") || !strings.Contains(md, "| 32 |") {
		t.Fatalf("bad markdown:\n%s", md)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "Table II", Headers: []string{"Approach", "Gbps"}}
	tab.AddRow("StrideBV", "100.0")
	tab.AddRow("TCAM", "20.0")
	s := tab.String()
	if !strings.Contains(s, "Table II") || !strings.Contains(s, "StrideBV") {
		t.Fatalf("bad table:\n%s", s)
	}
	md := tab.Markdown()
	if !strings.Contains(md, "| Approach | Gbps |") {
		t.Fatalf("bad markdown:\n%s", md)
	}
}

func TestTableRowMismatchPanics(t *testing.T) {
	tab := &Table{Headers: []string{"a", "b"}}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched row accepted")
		}
	}()
	tab.AddRow("only-one")
}
