package obsv

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketBoundsCoverInt64(t *testing.T) {
	// Every value must land in a bucket whose upper bound covers it, and
	// bucket bounds must be strictly increasing.
	maxI64 := int64(^uint64(0) >> 1)
	values := []int64{0, 1, 7, 8, 9, 15, 16, 100, 1000, 1e6, 1e9, 1e12, maxI64 - 1, maxI64}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		values = append(values, rng.Int63())
	}
	for _, v := range values {
		b := bucketOf(v)
		if b < 0 || b >= numBuckets {
			t.Fatalf("bucketOf(%d) = %d out of range", v, b)
		}
		if u := bucketUpper(b); u < v {
			t.Fatalf("bucketUpper(%d) = %d < value %d", b, u, v)
		}
		if b > 0 && bucketUpper(b-1) >= v {
			t.Fatalf("value %d in bucket %d but previous bound %d already covers it", v, b, bucketUpper(b-1))
		}
	}
	for b := 1; b < numBuckets; b++ {
		if bucketUpper(b) < bucketUpper(b-1) {
			t.Fatalf("bucket bounds not monotone at %d: %d < %d", b, bucketUpper(b), bucketUpper(b-1))
		}
	}
}

func TestBucketRelativeError(t *testing.T) {
	// The log-bucket design promise: upper bound overshoots the true value
	// by at most 1/histSubBuckets = 12.5% (exact below histSubBuckets).
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50000; i++ {
		v := rng.Int63n(1 << 40)
		if v < histSubBuckets {
			if bucketUpper(bucketOf(v)) != v {
				t.Fatalf("small value %d not exact", v)
			}
			continue
		}
		u := bucketUpper(bucketOf(v))
		if rel := float64(u-v) / float64(v); rel > 0.125 {
			t.Fatalf("value %d bucket upper %d relative error %.3f > 0.125", v, u, rel)
		}
	}
}

func TestHistogramObserveAndQuantiles(t *testing.T) {
	var h Histogram
	// A known distribution: 1000 samples at 1µs, 100 at 10µs, 10 at 1ms.
	for i := 0; i < 1000; i++ {
		h.Observe(1 * time.Microsecond)
	}
	for i := 0; i < 100; i++ {
		h.Observe(10 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1 * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 1110 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Max != int64(time.Millisecond) {
		t.Fatalf("max = %d", s.Max)
	}
	wantSum := 1000*int64(time.Microsecond) + 100*int64(10*time.Microsecond) + 10*int64(time.Millisecond)
	if s.Sum != wantSum {
		t.Fatalf("sum = %d, want %d", s.Sum, wantSum)
	}
	// p50 lands in the 1µs bucket: estimate within 12.5% above.
	if p := s.Quantile(0.50); p < int64(time.Microsecond) || p > int64(time.Microsecond)*9/8 {
		t.Fatalf("p50 = %d", p)
	}
	// p99 lands in the 10µs cohort (rank 1098 of 1110).
	if p := s.Quantile(0.99); p < int64(10*time.Microsecond) || p > int64(10*time.Microsecond)*9/8 {
		t.Fatalf("p99 = %d", p)
	}
	// p999 (rank ~1108) is in the 1ms tail; capped at the true max.
	if p := s.Quantile(0.999); p != int64(time.Millisecond) {
		t.Fatalf("p999 = %d", p)
	}
	if p := s.Quantile(1); p != s.Max {
		t.Fatalf("p100 = %d, want max %d", p, s.Max)
	}
	if got := s.Mean(); math.Abs(got-float64(wantSum)/1110) > 1e-6 {
		t.Fatalf("mean = %g", got)
	}
	if str := s.String(); !strings.Contains(str, "count=1110") || !strings.Contains(str, "p99=") {
		t.Fatalf("String() = %q", str)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 || s.Max != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
	if s.Quantile(0.5) != 0 || s.Mean() != 0 {
		t.Fatal("empty quantile/mean not zero")
	}
}

func TestHistogramNegativeClampsToZero(t *testing.T) {
	var h Histogram
	h.ObserveNanos(-5)
	s := h.Snapshot()
	if s.Count != 1 || s.Buckets[0] != 1 || s.Sum != 0 {
		t.Fatalf("negative sample snapshot = %+v", s)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, per = 16, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < per; i++ {
				h.ObserveNanos(rng.Int63n(1 << 30))
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d (lost updates across shards)", s.Count, workers*per)
	}
	var n int64
	for _, c := range s.Buckets {
		n += int64(c)
	}
	if n != s.Count {
		t.Fatalf("bucket total %d != count %d", n, s.Count)
	}
}

func TestHistogramObserveZeroAlloc(t *testing.T) {
	var h Histogram
	if n := testing.AllocsPerRun(1000, func() { h.Observe(1234 * time.Nanosecond) }); n != 0 {
		t.Fatalf("Observe allocates %.1f allocs/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.ObserveNanos(987654) }); n != 0 {
		t.Fatalf("ObserveNanos allocates %.1f allocs/op", n)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ObserveNanos(int64(i)&0xFFFFF + 100)
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		n := int64(0)
		for pb.Next() {
			n++
			h.ObserveNanos(n&0xFFFFF + 100)
		}
	})
}
