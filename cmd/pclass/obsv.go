// Observability wiring for the serve subcommand: the -sample / -obsv flags
// build an obsv.Obs instrument set, the exposition server publishes the
// service's live state (/metrics, /statusz, /tracez, /debug/pprof), and the
// end-of-run report prints the latency histograms and the freshest sampled
// trace.
package main

import (
	"fmt"
	"time"

	"pktclass/internal/core"
	"pktclass/internal/obsv"
	"pktclass/internal/serve"
)

// newObs builds the serving instrument set: histograms always on, packet
// tracing at 1-in-sample (0 disables tracing but keeps histograms).
func newObs(sample int) *obsv.Obs {
	var tracer *obsv.Tracer
	if sample > 0 {
		tracer = obsv.NewTracer(sample, 128)
	}
	return obsv.NewObs(nil, tracer)
}

// startObsServer starts the exposition server on addr, wiring the
// service's dynamic state as scrape-time collectors. The returned address
// is the bound listener's.
func startObsServer(addr string, obs *obsv.Obs, svc *serve.Service) (*obsv.Server, string, error) {
	srv := obsv.NewServer(obs.Reg, obs.Tracer)
	srv.SetJournal(obs.Journal)
	srv.AddStatus("journal", func() any { return obs.Journal.Stats() })
	for i := 0; i < svc.Workers(); i++ {
		shard := i
		srv.AddGaugeFunc(fmt.Sprintf("serve.shard_depth{shard=%q}", fmt.Sprint(shard)), func() float64 {
			return float64(svc.ShardDepths()[shard])
		})
	}
	// Each scrape samples the load window, so the imbalance series at
	// /metrics advances at scrape cadence and the rebalance-candidate
	// check runs as a free side effect.
	srv.AddGaugeFunc("serve.imbalance_index", func() float64 {
		return svc.ImbalanceIndex()
	})
	srv.AddStatus("worker_loads", func() any { return svc.WorkerLoads() })
	for i := 0; i < svc.Workers(); i++ {
		w := i
		srv.AddGaugeFunc(fmt.Sprintf("serve.worker_classified{worker=%q}", fmt.Sprint(w)), func() float64 {
			return float64(svc.WorkerClassified()[w])
		})
		srv.AddGaugeFunc(fmt.Sprintf("serve.worker_batches{worker=%q}", fmt.Sprint(w)), func() float64 {
			return float64(svc.WorkerLoads()[w].Batches)
		})
	}
	if det := svc.FlowStats(); det != nil {
		srv.SetTopFlows(det.Report)
		srv.AddGaugeFunc("flowstats.packets", func() float64 {
			return float64(det.Packets())
		})
		srv.AddGaugeFunc("flowstats.topk_share", func() float64 {
			return det.TopKShare()
		})
		srv.AddStatus("top_flows", func() any { return det.Report(8) })
	}
	if stats := svc.WorkerCacheStats(); stats != nil {
		for i := range stats {
			w := i
			srv.AddGaugeFunc(fmt.Sprintf("flowcache.worker_hit_rate{worker=%q}", fmt.Sprint(w)), func() float64 {
				return svc.WorkerCacheStats()[w].HitRate()
			})
		}
		srv.AddStatus("flowcache_workers", func() any {
			return svc.WorkerCacheStats()
		})
	}
	if _, ok := svc.CacheStats(); ok {
		srv.AddGaugeFunc("flowcache.hit_rate", func() float64 {
			st, _ := svc.CacheStats()
			return st.HitRate()
		})
		srv.AddGaugeFunc("flowcache.coalesced", func() float64 {
			st, _ := svc.CacheStats()
			return float64(st.Coalesced)
		})
		srv.AddGaugeFunc("flowcache.entries", func() float64 {
			st, _ := svc.CacheStats()
			return float64(st.Entries)
		})
		srv.AddGaugeFunc("flowcache.generation", func() float64 {
			st, _ := svc.CacheStats()
			return float64(st.Generation)
		})
		srv.AddStatus("flowcache", func() any {
			st, _ := svc.CacheStats()
			return st
		})
	}
	srv.AddGaugeFunc("engine.memory_bits", func() float64 {
		return float64(core.MemoryBits(svc.Engine()))
	})
	srv.AddStatus("engine", func() any {
		eng := svc.Engine()
		return map[string]any{
			"name":        eng.Name(),
			"rules":       eng.NumRules(),
			"memory_bits": core.MemoryBits(eng),
		}
	})
	bound, err := srv.Start(addr)
	if err != nil {
		return nil, "", err
	}
	return srv, bound, nil
}

// printObsSummary renders the end-of-run latency distributions and, when
// tracing was on, the freshest sampled trace — the hop-by-hop account of
// one packet's decision.
func printObsSummary(obs *obsv.Obs) {
	snap := obs.Reg.Snapshot()
	order := []string{
		obsv.HistSubmitWait,
		obsv.HistSteerScatter,
		obsv.HistClassifyBatch,
		obsv.HistCacheProbe,
		obsv.HistSwapBuild,
		obsv.HistSwapVerify,
		obsv.HistSwapTotal,
	}
	fmt.Println("latency histograms")
	for _, name := range order {
		h, ok := snap.Histograms[name]
		if !ok || h.Count == 0 {
			continue
		}
		fmt.Printf("  %-22s %s\n", name, h)
	}
	if st := obs.Tracer.Stats(); st.Every > 0 {
		fmt.Printf("tracer            1/%d sampling, %d sampled of %d packets (%d busy drops)\n",
			st.Every, st.Sampled, st.Packets, st.Busy)
		if traces := obs.Tracer.Snapshot(); len(traces) > 0 {
			fmt.Printf("freshest sampled trace (total %s):\n%s\n",
				time.Duration(traces[0].TotalNanos), traces[0].String())
		}
	}
}
