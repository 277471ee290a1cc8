package obsv

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCounterConcurrentAdds(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
			c.Add(10)
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8*1000+8*10 {
		t.Fatalf("counter = %d", got)
	}
}

func TestGaugeHighWater(t *testing.T) {
	var g Gauge
	g.Set(3)
	g.Set(9)
	g.Set(2)
	if g.Value() != 2 {
		t.Fatalf("value = %d, want 2", g.Value())
	}
	if g.Max() != 9 {
		t.Fatalf("max = %d, want 9", g.Max())
	}
	// Concurrent raises race only upward.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(v int64) {
			defer wg.Done()
			g.Set(v)
		}(int64(10 + w))
	}
	wg.Wait()
	if g.Max() != 17 {
		t.Fatalf("max = %d, want 17", g.Max())
	}
}

// TestGaugeMaxNeverUndercounts races writers against a reader: because Set
// raises the high-water mark before storing the value, no observer may
// ever see Value() > Max(), and the final mark must equal the largest
// value any writer stored.
func TestGaugeMaxNeverUndercounts(t *testing.T) {
	var g Gauge
	const writers, perWriter = 8, 2000
	stop := make(chan struct{})
	var undercounts atomic.Int64
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Order matters the same way Registry.Snapshot reads: the
				// value first, then the mark that must already cover it.
				v := g.Value()
				if m := g.Max(); m < v {
					undercounts.Add(1)
				}
			}
		}()
	}
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < perWriter; i++ {
				g.Set(int64(w*perWriter + i))
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	readers.Wait()
	if n := undercounts.Load(); n != 0 {
		t.Fatalf("observed Max() < Value() %d times", n)
	}
	if want := int64(writers*perWriter - 1); g.Max() != want {
		t.Fatalf("final max = %d, want %d", g.Max(), want)
	}
}

func TestRegistry(t *testing.T) {
	var r Registry
	r.Counter("packets").Add(5)
	r.Counter("packets").Add(2) // same counter, not a new one
	r.Counter("drops").Inc()
	snap := r.Snapshot()
	if snap.Counters["packets"] != 7 || snap.Counters["drops"] != 1 {
		t.Fatalf("snapshot = %v", snap.Counters)
	}
}

func TestRegistrySnapshotIncludesEveryKind(t *testing.T) {
	var r Registry
	r.Counter("packets").Add(3)
	r.Gauge("depth").Set(7)
	r.Gauge("depth").Set(4)
	r.Histogram("swap").Observe(10 * time.Millisecond)
	r.Histogram("swap").Observe(20 * time.Millisecond)
	snap := r.Snapshot()
	if snap.Counters["packets"] != 3 {
		t.Fatalf("counters = %v", snap.Counters)
	}
	g, ok := snap.Gauges["depth"]
	if !ok || g.Value != 4 || g.Max != 7 {
		t.Fatalf("gauge snapshot = %+v (ok=%v)", g, ok)
	}
	h, ok := snap.Histograms["swap"]
	if !ok || h.Count != 2 || h.Sum != int64(30*time.Millisecond) || h.Max != int64(20*time.Millisecond) {
		t.Fatalf("histogram snapshot = count %d sum %d max %d (ok=%v)", h.Count, h.Sum, h.Max, ok)
	}
	// Same name, different kinds: no collision.
	if r.Counter("depth").Value() != 0 || r.Gauge("packets").Max() != 0 || r.Histogram("depth").Snapshot().Count != 0 {
		t.Fatal("instrument namespace collision")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	var r Registry
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("shared").Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 4000 {
		t.Fatalf("shared = %d", got)
	}
}

// TestRegistryConcurrentRegistration races first-use registration itself
// across every instrument kind: 16 goroutines all asking for the same 8
// names must converge on one instrument per (kind, name) with no lost
// samples — the exposition layer registers lazily from scrape handlers
// while the serving path registers from New.
func TestRegistryConcurrentRegistration(t *testing.T) {
	var r Registry
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, name := range names {
				r.Counter(name).Inc()
				r.Gauge(name).Set(int64(w*len(names) + i))
				r.Histogram(name).Observe(time.Duration(i+1) * time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
	snap := r.Snapshot()
	for _, name := range names {
		if got := snap.Counters[name]; got != 16 {
			t.Fatalf("counter %q = %d, want 16 (a racing registration dropped increments)", name, got)
		}
		if got := snap.Histograms[name].Count; got != 16 {
			t.Fatalf("histogram %q count = %d, want 16", name, got)
		}
		if r.Counter(name) != r.Counter(name) || r.Gauge(name) != r.Gauge(name) || r.Histogram(name) != r.Histogram(name) {
			t.Fatalf("%q resolves to different instruments across calls", name)
		}
	}
}
