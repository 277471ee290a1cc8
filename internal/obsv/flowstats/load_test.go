package flowstats

import (
	"math"
	"testing"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestLoadTrackerFirstSampleZeroBaseline(t *testing.T) {
	tr := NewLoadTracker(4)
	if tr.window != 4 {
		t.Fatalf("window = %d, want 4", tr.window)
	}
	// One-shot sample measures the cumulative counts themselves:
	// max=40, mean=25 -> 1.6.
	if got := tr.Sample([]int64{10, 40, 20, 30}); !almostEq(got, 1.6) {
		t.Fatalf("first sample imbalance = %v, want 1.6", got)
	}
}

func TestLoadTrackerWindowedDeltas(t *testing.T) {
	tr := NewLoadTracker(2)
	tr.Sample([]int64{0, 0})     // baseline
	tr.Sample([]int64{100, 100}) // fills the ring
	// Window is now full: the next sample's baseline is the oldest
	// retained sample ({0,0}), so deltas are {300, 100}: max=300,
	// mean=200 -> 1.5.
	if got := tr.Sample([]int64{300, 100}); !almostEq(got, 1.5) {
		t.Fatalf("windowed imbalance = %v, want 1.5", got)
	}
	// Next baseline is {100,100}: deltas {300,0}: max=300, mean=150 -> 2.
	if got := tr.Sample([]int64{400, 100}); !almostEq(got, 2) {
		t.Fatalf("windowed imbalance = %v, want 2", got)
	}
}

func TestLoadTrackerBalancedIsOne(t *testing.T) {
	tr := NewLoadTracker(2)
	for i := int64(1); i <= 6; i++ {
		if got := tr.Sample([]int64{i * 10, i * 10, i * 10}); !almostEq(got, 1) {
			t.Fatalf("balanced sample %d imbalance = %v, want 1", i, got)
		}
	}
}

func TestLoadTrackerIdleWindowIsZero(t *testing.T) {
	tr := NewLoadTracker(2)
	tr.Sample([]int64{50, 50})
	tr.Sample([]int64{50, 50})
	// Nothing moved inside the window.
	if got := tr.Sample([]int64{50, 50}); got != 0 {
		t.Fatalf("idle imbalance = %v, want 0", got)
	}
	if got := tr.Sample(nil); got != 0 {
		t.Fatalf("empty sample imbalance = %v, want 0", got)
	}
}

func TestLoadTrackerWorkerCountChangeResetsBaseline(t *testing.T) {
	tr := NewLoadTracker(2)
	tr.Sample([]int64{10, 10})
	tr.Sample([]int64{20, 20})
	// Three workers now: the two-worker baseline cannot apply, so this is
	// measured against zero: max=30, mean=20 -> 1.5.
	if got := tr.Sample([]int64{30, 10, 20}); !almostEq(got, 1.5) {
		t.Fatalf("post-resize imbalance = %v, want 1.5", got)
	}
}

func TestLoadTrackerCounterRegressionClamped(t *testing.T) {
	tr := NewLoadTracker(2)
	tr.Sample([]int64{100, 100})
	tr.Sample([]int64{200, 200})
	// Worker 1's counter went backwards (e.g. restart); its delta clamps
	// to 0 instead of poisoning the mean: deltas {200, 0}: max=200,
	// mean=100 -> 2.
	if got := tr.Sample([]int64{300, 50}); !almostEq(got, 2) {
		t.Fatalf("regression imbalance = %v, want 2", got)
	}
}

func TestLoadTrackerDefaultWindow(t *testing.T) {
	if w := NewLoadTracker(0).window; w != 8 {
		t.Fatalf("default window = %d, want 8", w)
	}
	if w := NewLoadTracker(1).window; w != 8 {
		t.Fatalf("window(1) = %d, want 8", w)
	}
}
