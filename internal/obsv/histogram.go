// Package obsv is the serving stack's observability layer: one registry
// of live instruments (lock-free counters, high-water gauges and
// log-bucketed latency histograms), sampled per-stage packet tracing, and
// a stdlib-only HTTP exposition server (Prometheus text at /metrics,
// pprof, a JSON /statusz, and the trace ring at /tracez).
//
// The paper's entire contribution is measurement — throughput, latency,
// memory, power — but its numbers are offline aggregates. This package
// gives the software serving path the live equivalents: latency
// *distributions* (p50/p90/p99/p999, not just mean and max), a scrape
// surface, and the ability to explain a single packet's decision hop by
// hop (cache probe, every StrideBV stage's surviving popcount, the TCAM
// match count, the priority-encoder winner).
//
// Everything on the record side is allocation-free and lock-free: the hot
// paths promise 0 allocs/op (and pclasslint's hotpathalloc analyzer holds
// them to it), so instrumentation can stay on in production builds.
package obsv

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
	"unsafe"
)

// Bucket layout: values (nanoseconds) 0..7 get exact buckets; larger values
// are log-bucketed with histSubBuckets sub-buckets per power of two, so the
// relative quantization error is bounded by 1/histSubBuckets (12.5%).
const (
	histSubBits    = 3
	histSubBuckets = 1 << histSubBits // 8
	// numBuckets covers the full int64 range: 8 exact small-value buckets
	// plus 8 sub-buckets for each exponent 4..64.
	numBuckets = histSubBuckets + (64-3)*histSubBuckets // 496
)

// histShards stripes the bucket counters so concurrent observers on
// different goroutines rarely share a cache line. Must be a power of two.
const histShards = 8

// histShard is one stripe of bucket counters plus its share of the sum.
type histShard struct {
	buckets [numBuckets]atomic.Uint64
	sum     atomic.Int64
	max     atomic.Int64
	_       [48]byte // keep the next shard's hot words off this line
}

// Histogram is a lock-free log-bucketed latency histogram. Observe is
// wait-free (one atomic add on a goroutine-striped shard) and
// allocation-free; Snapshot merges the stripes into a consistent-enough
// point-in-time view for quantile estimation and exposition. The zero
// value is ready to use.
type Histogram struct {
	shards [histShards]histShard
}

// bucketOf maps a nanosecond value to its bucket index.
//
//pclass:hotpath
func bucketOf(n int64) int {
	if n < 0 {
		n = 0
	}
	if n < histSubBuckets {
		return int(n)
	}
	e := bits.Len64(uint64(n)) // >= 4
	s := int(uint64(n)>>(e-1-histSubBits)) & (histSubBuckets - 1)
	return (e-4)*histSubBuckets + histSubBuckets + s
}

// bucketUpper returns the inclusive upper bound (in nanoseconds) of bucket
// b: every value recorded in b is <= bucketUpper(b).
func bucketUpper(b int) int64 {
	if b < histSubBuckets {
		return int64(b)
	}
	e := (b-histSubBuckets)/histSubBuckets + 4
	s := (b - histSubBuckets) % histSubBuckets
	shift := e - 1 - histSubBits
	u := uint64(histSubBuckets+s+1)<<shift - 1
	if shift >= 60 || u > uint64(^uint64(0)>>1) {
		// The top buckets saturate rather than overflow int64.
		return int64(^uint64(0) >> 1)
	}
	return int64(u)
}

// shardIndex picks this goroutine's stripe. Goroutine stacks live in
// distinct allocations, so the address of a stack variable is a cheap,
// stable per-goroutine discriminator — the standard trick for striping
// without runtime internals. The pointer never escapes (it is immediately
// reduced to an integer), so the pin variable stays on the stack.
//
//pclass:hotpath
func shardIndex() int {
	var pin byte
	return int(uintptr(unsafe.Pointer(&pin)) >> 10 & (histShards - 1))
}

// Observe records one duration sample. Wait-free, allocation-free.
//
//pclass:hotpath
func (h *Histogram) Observe(d time.Duration) { h.ObserveNanos(int64(d)) }

// ObserveNanos records one sample in nanoseconds.
//
//pclass:hotpath
func (h *Histogram) ObserveNanos(n int64) {
	if n < 0 {
		n = 0
	}
	s := &h.shards[shardIndex()]
	s.buckets[bucketOf(n)].Add(1)
	s.sum.Add(n)
	raiseMax(&s.max, n)
}

// HistSnapshot is a merged point-in-time view of a histogram.
type HistSnapshot struct {
	Count int64
	Sum   int64 // nanoseconds
	Max   int64 // nanoseconds
	// Buckets holds the merged per-bucket counts; index b counts samples
	// with value <= bucketUpper(b) (and > the previous bucket's bound).
	Buckets []uint64
}

// Snapshot merges the shard stripes. Concurrent Observes may land between
// stripe reads — the snapshot is a consistent view in the same sense as
// any atomic-counter snapshot: every completed Observe before the call is
// included, in-flight ones may or may not be.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Buckets: make([]uint64, numBuckets)}
	for i := range h.shards {
		sh := &h.shards[i]
		for b := range sh.buckets {
			if c := sh.buckets[b].Load(); c > 0 {
				s.Buckets[b] += c
				s.Count += int64(c)
			}
		}
		s.Sum += sh.sum.Load()
		if m := sh.max.Load(); m > s.Max {
			s.Max = m
		}
	}
	return s
}

// Quantile estimates the p-quantile (0 <= p <= 1) in nanoseconds from the
// merged buckets: the upper bound of the bucket holding the rank-p sample,
// so the estimate errs high by at most the bucket's 12.5% width. Returns 0
// with no samples.
func (s HistSnapshot) Quantile(p float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := int64(p * float64(s.Count-1))
	var seen int64
	for b, c := range s.Buckets {
		seen += int64(c)
		if seen > rank {
			u := bucketUpper(b)
			if u > s.Max && s.Max > 0 {
				return s.Max
			}
			return u
		}
	}
	return s.Max
}

// Mean returns the average sample in nanoseconds, 0 with no samples.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// String summarises the distribution.
func (s HistSnapshot) String() string {
	return fmt.Sprintf("count=%d mean=%s p50=%s p90=%s p99=%s p999=%s max=%s",
		s.Count,
		time.Duration(int64(s.Mean())),
		time.Duration(s.Quantile(0.50)),
		time.Duration(s.Quantile(0.90)),
		time.Duration(s.Quantile(0.99)),
		time.Duration(s.Quantile(0.999)),
		time.Duration(s.Max))
}
