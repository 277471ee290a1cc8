package flowstats

import "sync"

// defaultWindow is the sliding-window depth when NewLoadTracker is not
// given one: with one sample per scrape, eight samples of history.
const defaultWindow = 8

// LoadTracker derives the steering imbalance index from periodic samples
// of cumulative per-worker load counters. Each Sample records the current
// cumulative counts and returns max/mean of the per-worker deltas across
// the retained window — 1.0 is perfect balance, W means one of W workers
// took everything, 0 means no traffic moved inside the window. The window
// makes the index a recent-load signal rather than an all-time average:
// an elephant flow that arrived a minute ago shows up immediately instead
// of being diluted by an hour of balanced history.
//
// LoadTracker is mutex-guarded, not wait-free: it sits on the scrape and
// report paths, never on the classify path.
type LoadTracker struct {
	mu     sync.Mutex
	window int
	ring   [][]int64 // cumulative samples, oldest at head once full
	head   int
	count  int
}

// NewLoadTracker builds a tracker retaining window samples (values < 2
// select 8).
func NewLoadTracker(window int) *LoadTracker {
	if window < 2 {
		window = defaultWindow
	}
	return &LoadTracker{window: window, ring: make([][]int64, window)}
}

// Sample records cum (cumulative per-worker counts, e.g.
// Service.WorkerClassified) and returns the imbalance index over the
// window. Until the ring fills — including the very first sample — the
// baseline is the zero vector, so a one-shot Sample measures the skew of
// the cumulative counts themselves (what the scaling bench wants). A
// worker-count change resets the baseline to zero.
func (t *LoadTracker) Sample(cum []int64) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var oldest []int64
	if t.count >= t.window {
		oldest = t.ring[t.head]
	}
	if len(oldest) != len(cum) {
		oldest = nil
	}
	// Compute before storing: the slot being overwritten IS the oldest
	// sample once the ring is full.
	idx := imbalance(cum, oldest)
	buf := t.ring[t.head]
	if cap(buf) < len(cum) {
		buf = make([]int64, len(cum))
	}
	buf = buf[:len(cum)]
	copy(buf, cum)
	t.ring[t.head] = buf
	t.head = (t.head + 1) % t.window
	if t.count < t.window {
		t.count++
	}
	return idx
}

// imbalance is max/mean of cur-oldest per worker (oldest nil = zero
// baseline); 0 when nothing moved or any delta is negative-sum.
func imbalance(cur, oldest []int64) float64 {
	if len(cur) == 0 {
		return 0
	}
	var sum, max int64
	for i, c := range cur {
		d := c
		if oldest != nil {
			d -= oldest[i]
		}
		if d < 0 {
			d = 0
		}
		sum += d
		if d > max {
			max = d
		}
	}
	if sum <= 0 {
		return 0
	}
	mean := float64(sum) / float64(len(cur))
	return float64(max) / mean
}
