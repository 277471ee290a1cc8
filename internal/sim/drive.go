// Drive: the one load driver for the serving layer. The paper asserts both
// engines keep classifying at speed while rules are reconfigured (Section
// IV-C) but never measures the interaction; Drive feeds packet streams
// through a serve.Service while an updater lands hot-swaps beside them,
// and every in-module serving run — pclass serve, its -measure replay,
// bench -churn and bench -scaling — goes through it.

package sim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pktclass/internal/packet"
	"pktclass/internal/serve"
	"pktclass/internal/update"
)

// Load is the traffic and rule churn one Drive call applies.
type Load struct {
	// Feeds are the packet streams, one feeder goroutine each. Every
	// feeder classifies its feed through ClassifySteered, Batch packets a
	// call.
	Feeds [][]packet.Header
	Batch int
	// For > 0 cycles the feeds for that long; otherwise each feed is
	// replayed once.
	For time.Duration
	// OpsPerSwap > 0 starts an updater that applies update.GenerateOps
	// batches of that many rule replacements (so the service's ruleset
	// must be prefix-only). It waits Every between swaps (0: back to
	// back), attempts at most Swaps of them (0: no bound), seeds the first
	// batch with Seed and each later one with the next seed, and stops
	// with the feeders. It always attempts at least one swap: the first,
	// drawn before any traffic, goes in at once, however short the feeds.
	OpsPerSwap int
	Every      time.Duration
	Swaps      int
	Seed       int64
}

// Outcome is what one Drive call measured.
type Outcome struct {
	// Packets is the number the feeders classified, in Elapsed: the wall
	// time from the first batch until the last feeder stopped.
	Packets int64
	Elapsed time.Duration
	// Results holds a replay's classifications, the feeds' results
	// concatenated in feed order (nil when cycling). Each batch lands on
	// one engine version, so under semantics-changing churn a packet's
	// result is the version its batch observed.
	Results []int
	// RuleOps counts the rule replacements in committed swaps, including
	// a swap that commits after the feeders stop. Rollbacks counts swaps
	// the service rejected with serve.ErrRolledBack: the previous engine
	// kept serving, so churn goes on.
	RuleOps   int64
	Rollbacks int64
}

// Drive runs l against svc and returns once the feeders are done and the
// updater has stopped. A feeder or updater error other than a rollback
// stops the run, and Drive returns the first one. The caller owns svc.
func Drive(svc *serve.Service, l Load) (Outcome, error) {
	if l.Batch < 1 {
		return Outcome{}, fmt.Errorf("sim: batch %d, want at least 1", l.Batch)
	}
	if l.OpsPerSwap < 0 {
		return Outcome{}, fmt.Errorf("sim: %d ops per swap, want at least 0", l.OpsPerSwap)
	}
	if len(l.Feeds) == 0 {
		return Outcome{}, errors.New("sim: no feeds")
	}
	total := 0
	for i, f := range l.Feeds {
		if len(f) == 0 {
			return Outcome{}, fmt.Errorf("sim: feed %d is empty", i)
		}
		total += len(f)
	}
	var first []update.Op
	if l.OpsPerSwap > 0 {
		// The first swap's ops are drawn before any traffic, so a ruleset
		// the updater cannot churn fails the run before it starts.
		var err error
		if first, err = update.GenerateOps(svc.RuleSet(), l.OpsPerSwap, l.Seed); err != nil {
			return Outcome{}, fmt.Errorf("sim: updater: %w", err)
		}
	}
	var (
		o                Outcome
		packets          atomic.Int64
		ruleOps, rolled  int64
		feeders, updater sync.WaitGroup
		stop             = make(chan struct{})
		halt             = sync.OnceFunc(func() { close(stop) })
		errs             = make(chan error, len(l.Feeds)+1) // one send per goroutine at most
	)
	cycle := l.For > 0
	if !cycle {
		o.Results = make([]int, total)
	}
	start := time.Now()
	off := 0
	for _, f := range l.Feeds {
		var out []int
		if cycle {
			out = make([]int, min(l.Batch, len(f)))
		} else {
			out = o.Results[off : off+len(f)]
			off += len(f)
		}
		feeders.Add(1)
		go func() {
			defer feeders.Done()
			n, err := feed(svc, f, out, l.Batch, cycle, stop)
			packets.Add(n)
			if err != nil {
				errs <- err
				halt()
			}
		}()
	}
	if l.OpsPerSwap > 0 {
		updater.Add(1)
		go func() {
			defer updater.Done()
			var err error
			if ruleOps, rolled, err = churn(svc, l, first, stop); err != nil {
				errs <- err
				halt()
			}
		}()
	}
	if cycle {
		defer time.AfterFunc(l.For, halt).Stop()
	}
	feeders.Wait()
	o.Elapsed = time.Since(start)
	halt()
	updater.Wait()
	o.Packets, o.RuleOps, o.Rollbacks = packets.Load(), ruleOps, rolled
	select {
	case err := <-errs:
		return Outcome{}, err
	default:
		return o, nil
	}
}

// feed classifies hdrs in batch-sized calls until stop closes or, unless
// cycle is set, the feed has been classified once. A replay's out spans
// the whole feed; a cycling feeder reuses one batch of out.
func feed(svc *serve.Service, hdrs []packet.Header, out []int, batch int, cycle bool, stop <-chan struct{}) (int64, error) {
	var n int64
	for lo := 0; ; {
		select {
		case <-stop:
			return n, nil
		default:
		}
		hi := min(lo+batch, len(hdrs))
		res := out[:hi-lo]
		if !cycle {
			res = out[lo:hi]
		}
		if err := svc.ClassifySteered(hdrs[lo:hi], res); err != nil {
			return n, fmt.Errorf("sim: feeder: %w", err)
		}
		n += int64(hi - lo)
		if lo = hi; lo == len(hdrs) {
			if !cycle {
				return n, nil
			}
			lo = 0
		}
	}
}

// churn is the updater: it applies ops, then each next batch of l's swaps,
// until stop closes or l.Swaps have been attempted. The first batch is
// attempted before stop is first checked, so a replay that drains before
// the updater is scheduled still churns once.
func churn(svc *serve.Service, l Load, ops []update.Op, stop <-chan struct{}) (ruleOps, rollbacks int64, err error) {
	var tick <-chan time.Time
	if l.Every > 0 {
		t := time.NewTicker(l.Every)
		defer t.Stop()
		tick = t.C
	}
	for n := 1; ; n++ {
		switch err := svc.ApplyOps(ops); {
		case err == nil:
			ruleOps += int64(len(ops))
		case errors.Is(err, serve.ErrRolledBack):
			rollbacks++
		default:
			return ruleOps, rollbacks, fmt.Errorf("sim: updater: %w", err)
		}
		if n == l.Swaps {
			return ruleOps, rollbacks, nil
		}
		if ops, err = update.GenerateOps(svc.RuleSet(), l.OpsPerSwap, l.Seed+int64(n)); err != nil {
			return ruleOps, rollbacks, fmt.Errorf("sim: updater: %w", err)
		}
		if tick == nil {
			select {
			case <-stop:
				return ruleOps, rollbacks, nil
			default:
			}
		} else {
			select {
			case <-stop:
				return ruleOps, rollbacks, nil
			case <-tick:
			}
		}
	}
}
