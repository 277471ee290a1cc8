package main

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"time"

	"pktclass/internal/core"
	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
	"pktclass/internal/serve"
	"pktclass/internal/update"
)

// swapEvery is the churn updater's schedule: one opsSwap-op ApplyOps every
// 10 ms, 3200 rule ops/s, sent on time whether or not the last one is done.
const swapEvery = 10 * time.Millisecond

// batch is one submitted operation: the headers, and the one position whose
// answer is checked against the oracle's pre-computed answer.
type batch struct {
	hdrs   []packet.Header
	pos    int
	lo, hi int // accepted answers at pos, inclusive
}

// makeBatches cuts a trace into fixed-size batches. Every batch is checked
// at one position, spread over the batch by a multiplicative hash so no
// slot of the scatter/gather path is privileged.
func makeBatches(trace []packet.Header, size int) []batch {
	out := make([]batch, 0, len(trace)/size)
	for i := 0; i+size <= len(trace); i += size {
		out = append(out, batch{hdrs: trace[i : i+size], pos: int(uint32(len(out)) * 2654435761 % uint32(size))})
	}
	return out
}

// client is one closed-loop caller: it submits its next batch only after
// the previous one returned.
type client struct {
	batches []batch
	out     []int
	lat     []time.Duration // per call; preallocated, calls past its end go unrecorded
	calls   int
	pkts    int64
	failed  int64
	end     time.Time
	marks   []mark    // the client's state at the end of each slice of the window
	rec     *recorder // traced pass A only
	async   bool      // traced pass O only: go through Submit, which observes queue wait
}

// numSlices is how many equal parts a window is cut into. Throughput and the
// latency percentiles are computed per slice and reported as the median over
// the slices, so a burst of interference from outside the process costs one
// slice, not the run.
const numSlices = 10

// mark is a client's running totals when a slice ended.
type mark struct {
	at    time.Time
	calls int
	pkts  int64
}

// call submits one batch and reports whether it was answered correctly.
func (c *client) call(svc *serve.Service, b *batch) bool {
	out := c.out[:len(b.hdrs)]
	if c.async {
		p, err := svc.Submit(b.hdrs)
		if err != nil {
			return false
		}
		if out, err = p.Wait(context.Background()); err != nil {
			return false
		}
	} else if err := svc.ClassifySteered(b.hdrs, out); err != nil {
		return false
	}
	got := out[b.pos]
	return got >= b.lo && got <= b.hi
}

// run replays the client's batches in a loop until the deadline. Nothing in
// it allocates.
func (c *client) run(svc *serve.Service, start, deadline time.Time) {
	slice := deadline.Sub(start) / numSlices
	next := start.Add(slice)
	rec := c.rec
	if rec != nil && !rec.on.Load() {
		rec = nil
	}
	for i := 0; ; i++ {
		if i == len(c.batches) {
			i = 0
		}
		b := &c.batches[i]
		root := -1
		if rec != nil {
			root = rec.beginRoot()
		}
		t0 := time.Now()
		ok := c.call(svc, b)
		t1 := time.Now()
		if rec != nil {
			rec.endRoot(root, t0, t1, len(b.hdrs))
		}
		if c.calls < len(c.lat) {
			c.lat[c.calls] = t1.Sub(t0)
		}
		c.calls++
		c.pkts += int64(len(b.hdrs))
		if !ok {
			c.failed++
		}
		if !t1.Before(next) && len(c.marks) < numSlices {
			c.marks = append(c.marks, mark{t1, c.calls, c.pkts})
			next = next.Add(slice)
		}
		if !t1.Before(deadline) || (rec != nil && rec.full()) {
			c.end = t1
			return
		}
	}
}

// updater is churn's open-loop writer. Each swap is timed from when it was
// due, so a stall is charged to every swap it delays.
type updater struct {
	ops    []update.Op
	next   int
	swap   []time.Duration // due -> ApplyOps return
	late   []time.Duration // due -> ApplyOps call
	failed int64
}

func (u *updater) run(svc *serve.Service, start, deadline time.Time) {
	for k := 0; len(u.swap) < cap(u.swap); k++ {
		due := start.Add(time.Duration(k) * swapEvery)
		if !due.Before(deadline) {
			return
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if u.next+opsSwap > len(u.ops) {
			u.next = 0
		}
		began := time.Now()
		err := svc.ApplyOps(u.ops[u.next : u.next+opsSwap])
		u.next += opsSwap
		u.swap = append(u.swap, time.Since(due))
		u.late = append(u.late, began.Sub(due))
		if err != nil {
			u.failed++
		}
	}
}

// load drives one service: n closed-loop clients, each replaying its own
// share of the trace, plus the updater on churn.
type load struct {
	sp      spec
	svc     *serve.Service
	clients []*client
	ops     []update.Op
	warmPer time.Duration // mean call time seen in the warm-up pass
}

// newLoad cuts the trace between n clients and pre-computes the oracle's
// answer at every batch's checked position, so the timed loop does no
// oracle work. On churn the ruleset changes under the traffic; a checked
// answer then only has to be a valid rule index, and verifyAfter re-checks
// exactly once the updater has stopped.
func newLoad(sp spec, in *inputs, svc *serve.Service, n int, rec *recorder) *load {
	l := &load{sp: sp, svc: svc, ops: in.ops}
	all := makeBatches(in.trace, sp.batch)
	oracle := core.NewLinear(in.rs)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		c := &client{batches: all[i*len(all)/n : (i+1)*len(all)/n], out: make([]int, sp.batch), rec: rec}
		l.clients = append(l.clients, c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range c.batches {
				b := &c.batches[j]
				if sp.churn {
					b.lo, b.hi = -1, in.rs.Len()-1
				} else {
					b.lo = oracle.Classify(b.hdrs[b.pos])
					b.hi = b.lo
				}
			}
		}()
	}
	wg.Wait()
	return l
}

// each runs f once per client, concurrently, and waits.
func (l *load) each(f func(*client)) {
	var wg sync.WaitGroup
	for _, c := range l.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(c)
		}()
	}
	wg.Wait()
}

// warm replays every client's whole share once, untimed: caches fill, the
// steer scratch pool grows, lazy set-up finishes. It reports failures like
// the window does, and sizes the latency buffers from the pace it saw.
func (l *load) warm() (failed int64) {
	start := time.Now()
	calls := 0
	l.each(func(c *client) {
		for j := range c.batches {
			if !c.call(l.svc, &c.batches[j]) {
				c.failed++
			}
		}
	})
	for _, c := range l.clients {
		failed += c.failed
		calls += len(c.batches)
		c.failed = 0
	}
	l.warmPer = time.Since(start) * time.Duration(len(l.clients)) / time.Duration(max(calls, 1))
	return failed
}

// window is what one measured interval produced.
type window struct {
	wall time.Duration
	// Medians over the window's slices.
	pktsPerS, p50us, p95us, p99us float64
	pkts                          int64
	calls                         int64
	failed                        int64           // failed calls plus failed swaps
	lat                           []time.Duration // every recorded call, slice by slice
	swap, late                    []time.Duration
	swaps                         int64
	mallocs                       uint64
	gcCycles                      uint32
}

// add folds the totals and the recorded calls of another window of the same
// load into w.
func (w *window) add(o *window) {
	w.wall += o.wall
	w.pkts += o.pkts
	w.calls += o.calls
	w.failed += o.failed
	w.swaps += o.swaps
	w.mallocs += o.mallocs
	w.gcCycles += o.gcCycles
	w.lat = append(w.lat, o.lat...)
}

func (w *window) nsPerPkt() float64 { return float64(w.wall) / float64(max(w.pkts, 1)) }

// measure runs the closed loop for d and collects what happened.
func (l *load) measure(d time.Duration) *window {
	perCall := max(l.warmPer, 200*time.Nanosecond)
	for _, c := range l.clients {
		// Twice the calls the warm-up pace predicts.
		c.lat = make([]time.Duration, 2*int(d/perCall)+1024)
		c.calls, c.pkts, c.failed = 0, 0, 0
		c.marks = make([]mark, 0, numSlices)
	}
	var u *updater
	if l.sp.churn {
		n := int(d/swapEvery) + 1
		u = &updater{ops: l.ops, swap: make([]time.Duration, 0, n), late: make([]time.Duration, 0, n)}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	deadline := start.Add(d)
	var uwg sync.WaitGroup
	if u != nil {
		uwg.Add(1)
		go func() {
			defer uwg.Done()
			u.run(l.svc, start, deadline)
		}()
	}
	l.each(func(c *client) { c.run(l.svc, start, deadline) })
	uwg.Wait()
	runtime.ReadMemStats(&m1)

	w := &window{mallocs: m1.Mallocs - m0.Mallocs, gcCycles: m1.NumGC - m0.NumGC}
	var rate, p50, p95, p99 []float64
	for k := 0; k < numSlices; k++ {
		var r float64
		var lat []time.Duration
		for _, c := range l.clients {
			if k >= len(c.marks) {
				continue // a traced pass cut short by a full recorder
			}
			from, to := mark{at: start}, c.marks[k]
			if k > 0 {
				from = c.marks[k-1]
			}
			r += float64(to.pkts-from.pkts) / to.at.Sub(from.at).Seconds()
			lat = append(lat, c.lat[min(from.calls, len(c.lat)):min(to.calls, len(c.lat))]...)
		}
		if len(lat) == 0 {
			continue
		}
		slices.Sort(lat)
		rate, p50 = append(rate, r), append(p50, quantile(lat, 0.50))
		p95, p99 = append(p95, quantile(lat, 0.95)), append(p99, quantile(lat, 0.99))
		w.lat = append(w.lat, lat...)
	}
	w.pktsPerS, w.p50us, w.p95us, w.p99us = median(rate), median(p50)/1e3, median(p95)/1e3, median(p99)/1e3
	for _, c := range l.clients {
		w.wall = max(w.wall, c.end.Sub(start))
		w.pkts += c.pkts
		w.calls += int64(c.calls)
		w.failed += c.failed
		c.lat = nil
	}
	if u != nil {
		w.swap, w.late, w.swaps = u.swap, u.late, int64(len(u.swap))
		w.failed += u.failed
		slices.Sort(w.swap)
		slices.Sort(w.late)
	}
	return w
}

// verifyAfter is churn's exact check: with the updater stopped, a directed
// sample must classify exactly as the linear reference over the ruleset the
// service now holds. It returns batches attempted and failed.
func (l *load) verifyAfter(seed int64) (attempted, failed int64) {
	rs := l.svc.RuleSet()
	sample := ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: 16 * l.sp.batch, MatchFraction: 0.8, Seed: seed})
	oracle := core.NewLinear(rs)
	out := make([]int, l.sp.batch)
	for _, b := range makeBatches(sample, l.sp.batch) {
		attempted++
		err := l.svc.ClassifySteered(b.hdrs, out)
		for i := range b.hdrs {
			if err != nil || out[i] != oracle.Classify(b.hdrs[i]) {
				failed++
				break
			}
		}
	}
	return attempted, failed
}

// quantile reads the q-quantile of an ascending slice.
func quantile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[min(int(q*float64(len(sorted))), len(sorted)-1)])
}
