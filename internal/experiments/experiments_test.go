package experiments

import (
	"bytes"
	"strings"
	"testing"

	"pktclass/internal/metrics"
)

// seriesMean is the average value across s's points.
func seriesMean(s *metrics.Series) float64 {
	t := 0.0
	for _, p := range s.Points {
		t += p.Value
	}
	return t / float64(len(s.Points))
}

// quick returns a config with a reduced sweep so the full suite stays fast.
func quick() Config {
	c := Default()
	c.Ns = []int{32, 256, 1024}
	return c
}

func TestFig4ShapesHold(t *testing.T) {
	f, err := Fig4(Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 5 {
		t.Fatalf("%d series", len(f.Series))
	}
	byLabel := map[string]int{}
	for i, s := range f.Series {
		byLabel[s.Label] = i
	}
	tcam := f.Series[byLabel["TCAM on FPGA"]]
	for _, s := range f.Series[:4] {
		for _, n := range PaperNs {
			sv, ok1 := s.At(n)
			tv, ok2 := tcam.At(n)
			if !ok1 || !ok2 {
				t.Fatalf("missing point at N=%d", n)
			}
			if sv <= tv {
				t.Fatalf("%s at N=%d: %.1f not above TCAM %.1f", s.Label, n, sv, tv)
			}
		}
		// Declining trend (tolerate small placement noise).
		first, _ := s.At(32)
		last, _ := s.At(2048)
		if last >= first {
			t.Fatalf("%s does not decline: %.1f -> %.1f", s.Label, first, last)
		}
	}
	// distRAM beats BRAM at the same stride.
	for _, k := range []string{"3", "4"} {
		d := f.Series[byLabel["distRAM, stride = "+k]]
		b := f.Series[byLabel["BRAM, stride = "+k]]
		if seriesMean(d) <= seriesMean(b) {
			t.Fatalf("stride %s: distRAM mean %.1f <= BRAM %.1f", k, seriesMean(d), seriesMean(b))
		}
	}
}

func TestFig5Fig6PlanAheadGain(t *testing.T) {
	f5, err := Fig5(Default())
	if err != nil {
		t.Fatal(err)
	}
	f6, err := Fig6(Default())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*metrics.Figure{f5, f6} {
		without, with := f.Series[0], f.Series[1]
		for _, n := range PaperNs {
			wv, _ := without.At(n)
			pv, _ := with.At(n)
			if pv < wv {
				t.Fatalf("%s: PlanAhead hurt at N=%d (%.1f < %.1f)", f.Title, n, pv, wv)
			}
		}
		// The paper's headline: large-N gain is substantial (~1.5x at 1024).
		wv, _ := without.At(1024)
		pv, _ := with.At(1024)
		if pv/wv < 1.2 {
			t.Fatalf("%s: gain at N=1024 only %.2fx", f.Title, pv/wv)
		}
	}
}

func TestFig7ExactValues(t *testing.T) {
	f, err := Fig7(Default())
	if err != nil {
		t.Fatal(err)
	}
	get := func(label string, n int) float64 {
		for _, s := range f.Series {
			if s.Label == label {
				v, _ := s.At(n)
				return v
			}
		}
		t.Fatalf("series %q missing", label)
		return 0
	}
	if v := get("StrideBV, stride = 4", 2048); v != 832 {
		t.Fatalf("k=4 N=2048 = %v Kbit", v)
	}
	if v := get("StrideBV, stride = 3", 2048); v != 560 {
		t.Fatalf("k=3 N=2048 = %v Kbit", v)
	}
	if v := get("TCAM on FPGA", 2048); v != 416 {
		t.Fatalf("TCAM N=2048 = %v Kbit", v)
	}
	// TCAM lowest everywhere; all linear in N.
	for _, n := range PaperNs {
		tc := get("TCAM on FPGA", n)
		if tc >= get("StrideBV, stride = 3", n) || tc >= get("StrideBV, stride = 4", n) {
			t.Fatalf("TCAM not lowest at N=%d", n)
		}
	}
}

func TestFig8Shapes(t *testing.T) {
	f, err := Fig8(Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 5 {
		t.Fatalf("%d series", len(f.Series))
	}
	get := func(label string, n int) float64 {
		for _, s := range f.Series {
			if s.Label == label {
				v, _ := s.At(n)
				return v
			}
		}
		t.Fatalf("series %q missing", label)
		return 0
	}
	// BRAM k=3 is the largest consumer at N=2048.
	b3 := get("BRAM, stride = 3", 2048)
	for _, l := range []string{"distRAM, stride = 3", "distRAM, stride = 4", "BRAM, stride = 4", "TCAM on FPGA"} {
		if get(l, 2048) >= b3 {
			t.Fatalf("%s >= BRAM k3 at N=2048", l)
		}
	}
	// Everything fits the device (<100%).
	for _, s := range f.Series {
		for _, p := range s.Points {
			if p.Value >= 100 {
				t.Fatalf("%s at N=%d uses %.1f%% slices", s.Label, p.N, p.Value)
			}
		}
	}
}

func TestFig9Saturation(t *testing.T) {
	f, err := Fig9(Default())
	if err != nil {
		t.Fatal(err)
	}
	k3, k4 := f.Series[0], f.Series[1]
	v3, _ := k3.At(2048)
	if v3 < 95 || v3 > 100 {
		t.Fatalf("k=3 N=2048 BRAM%% = %.1f", v3)
	}
	v4, _ := k4.At(2048)
	if v4 >= v3 {
		t.Fatalf("k=4 (%.1f) >= k=3 (%.1f)", v4, v3)
	}
}

func TestFig10Shapes(t *testing.T) {
	f, err := Fig10(Default())
	if err != nil {
		t.Fatal(err)
	}
	get := func(label string) *metrics.Series {
		for _, s := range f.Series {
			if s.Label == label {
				return s
			}
		}
		t.Fatalf("series %q missing", label)
		return nil
	}
	d3, d4 := get("distRAM, stride = 3"), get("distRAM, stride = 4")
	b3, b4 := get("BRAM, stride = 3"), get("BRAM, stride = 4")
	distMean := (seriesMean(d3) + seriesMean(d4)) / 2
	if r := seriesMean(b3) / distMean; r < 3 || r > 7 {
		t.Fatalf("BRAM k3 vs distRAM power-eff ratio %.2f (paper ~4.5)", r)
	}
	if r := seriesMean(b4) / distMean; r < 2.2 || r > 5 {
		t.Fatalf("BRAM k4 vs distRAM power-eff ratio %.2f (paper ~3.5)", r)
	}
	// distRAM is always the best (lowest mW/Gbps) at every N.
	for _, n := range PaperNs {
		dv, _ := d4.At(n)
		bv, _ := b4.At(n)
		if dv >= bv {
			t.Fatalf("distRAM k4 not better than BRAM k4 at N=%d", n)
		}
	}
}

func TestTableI(t *testing.T) {
	tab := TableI()
	if len(tab.Rows) != 6 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	s := tab.String()
	for _, want := range []string{"DROP", "UDP", "ICMP", "PORT"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table I missing %q:\n%s", want, s)
		}
	}
}

func TestTableIIOrderings(t *testing.T) {
	tab, err := TableII(Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	s := tab.String()
	for _, want := range []string{"TCAM-SSA", "Pattern-Matching", "B2PC", "TCAM-FPGA", "StrideBV"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table II missing %q:\n%s", want, s)
		}
	}
}

func TestASICPowerCurve(t *testing.T) {
	f := ASICPower(Default())
	v32, _ := f.Series[0].At(32)
	v2048, _ := f.Series[0].At(2048)
	if !(v32 < v2048) || v32 < 0.8 {
		t.Fatalf("ASIC power curve wrong: %.3f .. %.3f", v32, v2048)
	}
}

func TestVerifySummaryAllZero(t *testing.T) {
	tab, err := VerifySummary(Default())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[2] != "0" {
			t.Fatalf("engine %s has %s mismatches", row[0], row[2])
		}
	}
}

func TestRunAllBothFormats(t *testing.T) {
	c := quick()
	var buf bytes.Buffer
	if err := RunAll(c, &buf, false); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{"Fig 4", "Fig 7", "Table II", "Differential verification"} {
		if !strings.Contains(text, want) {
			t.Fatalf("RunAll output missing %q", want)
		}
	}
	buf.Reset()
	if err := RunAll(c, &buf, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "| N |") {
		t.Fatal("markdown output missing tables")
	}
}
