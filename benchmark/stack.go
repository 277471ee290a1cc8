package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"pktclass/internal/core"
	"pktclass/internal/obsv"
	"pktclass/internal/partition"
	"pktclass/internal/ruleset"
	"pktclass/internal/serve"
	"pktclass/internal/stridebv"
	"pktclass/internal/tcam"
)

// buildTimes accumulates where a stack's engine builds spent their time.
// Atomic because nothing promises that partition.New builds its
// sub-engines on one goroutine.
type buildTimes struct {
	expand, engine, partition atomic.Int64 // ns
}

// wrapFunc decorates a freshly built engine; the traced pass uses it to
// put a span around every ClassifyBatch. nil leaves engines bare.
type wrapFunc func(core.Engine) core.Engine

// builder returns the workload's serve.BuildFunc. bt may be nil.
func (sp spec) builder(wrap wrapFunc, bt *buildTimes) serve.BuildFunc {
	if bt == nil {
		bt = new(buildTimes)
	}
	if wrap == nil {
		wrap = func(e core.Engine) core.Engine { return e }
	}
	flat := func(rs *ruleset.RuleSet) (core.Engine, error) {
		t0 := time.Now()
		ex := rs.Expand()
		t1 := time.Now()
		var eng core.Engine
		if sp.engine == "tcam" {
			eng = tcam.NewBehavioral(ex)
		} else {
			e, err := stridebv.New(ex, stride)
			if err != nil {
				return nil, err
			}
			eng = e
		}
		bt.expand.Add(int64(t1.Sub(t0)))
		bt.engine.Add(int64(time.Since(t1)))
		return wrap(eng), nil
	}
	if sp.engine != "part-stridebv" {
		return flat
	}
	return func(rs *ruleset.RuleSet) (core.Engine, error) {
		t0 := time.Now()
		before := bt.expand.Load() + bt.engine.Load()
		e, err := partition.New(rs, partition.Config{Build: flat})
		if err != nil {
			return nil, err
		}
		sub := bt.expand.Load() + bt.engine.Load() - before
		bt.partition.Add(int64(time.Since(t0)) - sub)
		return wrap(e), nil
	}
}

// stackOpts vary how a workload's stack is built; the zero value is the
// stack the end-to-end run measures.
type stackOpts struct {
	wrap     wrapFunc  // decorate every built engine
	obs      *obsv.Obs // serve.Config.Obs
	noVerify bool      // disable the service's own swap verification
}

func (sp spec) config(seed int64, o stackOpts) serve.Config {
	cfg := serve.Config{
		Steer: true, Workers: workers, TopFlows: -1,
		CacheEntries: sp.cache, Seed: seed, Obs: o.obs,
	}
	if sp.churn {
		cfg.Incremental = true
		cfg.VerifyPackets = 64
	}
	if o.noVerify {
		cfg.VerifyPackets = -1
	}
	return cfg
}

// startTimes splits one cold start.
type startTimes struct {
	parse, newSvc, total time.Duration
	build                buildTimes
}

// coldStart is what setup_s times: rule text -> ParseString -> serve.New
// (expand, build) -> first answered batch.
func (sp spec) coldStart(in *inputs, seed int64, o stackOpts) (*serve.Service, *startTimes, error) {
	st := new(startTimes)
	out := make([]int, len(in.probe))
	t0 := time.Now()
	rs, err := ruleset.ParseString(in.text)
	if err != nil {
		return nil, nil, fmt.Errorf("parse generated ruleset: %w", err)
	}
	t1 := time.Now()
	svc, err := serve.New(rs, sp.builder(o.wrap, &st.build), sp.config(seed, o))
	if err != nil {
		return nil, nil, err
	}
	t2 := time.Now()
	if err := svc.ClassifySteered(in.probe, out); err != nil {
		closeService(svc)
		return nil, nil, fmt.Errorf("first batch: %w", err)
	}
	st.parse, st.newSvc, st.total = t1.Sub(t0), t2.Sub(t1), time.Since(t0)
	return svc, st, nil
}

// closeService drains and stops the service's workers.
func closeService(svc *serve.Service) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// The only error is the drain timing out, which leaves nothing to do:
	// the process is about to move on or exit either way.
	_ = svc.Close(ctx)
}
