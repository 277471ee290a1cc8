package main

// metric describes one reported number. The tables below are the single
// definition of names, units and bounds: BENCHMARK.json repeats them (a test
// holds the two together) and -compare applies them.
type metric struct {
	name, unit string
	higher     bool // higher is better
	// bound, end-to-end only, is the share of the parent's median the metric
	// may worsen by before -compare calls it a regression. 0 marks a number
	// that is printed and recorded but gates nothing.
	bound float64
	only  string // end-to-end only: the one workload that reports it
}

// endToEnd are the numbers a user of the service sees. A later performance
// claim names one of these and one workload. Throughput and the latency
// percentiles are medians over the window's ten slices (load.go).
//
// Each bound is about twice, or more, the widest quartile spread any workload
// showed for the metric over ten seeds on the 2-core reference box (README,
// calibration), so a rerun of the same code stays inside it.
var endToEnd = []metric{
	{name: "pkts_per_s", unit: "1/s", higher: true, bound: 0.20},
	{name: "batch_p50_us", unit: "us", bound: 0.20},
	{name: "batch_p95_us", unit: "us", bound: 0.25},
	// The 2-client p99 swings by a third of its median between identical
	// churn runs (whether a swap and a GC cycle coincide with the slowest
	// percent of batches is chance), so it gates nothing; the traced run's
	// 1-client serve.batch_p99_us is its per-layer stand-in.
	{name: "batch_p99_us", unit: "us"},
	{name: "heap_mb", unit: "MB", bound: 0.05},
	{name: "setup_s", unit: "s", bound: 0.25},
	// Reported by churn alone, so -compare gates them but BENCHMARK.json,
	// whose end-to-end metrics every workload must print, lists them per
	// layer as update.swap_p50_us and update.swap_p99_us.
	{name: "swap_p50_us", unit: "us", bound: 0.20, only: "churn"},
	{name: "swap_p99_us", unit: "us", bound: 0.25, only: "churn"},
}

// perLayer are the single-layer numbers of the traced run, named
// <package>.<what>. They carry no bound: they explain an end-to-end change,
// they do not gate one. A workload whose stack lacks the layer reports 0.
var perLayer = []metric{
	{name: "ruleset.parse_ms", unit: "ms"},
	{name: "ruleset.expand_ms", unit: "ms"},
	{name: "ruleset.expansion_factor", unit: "ratio"},
	{name: "packet.key_hash_ns_per_pkt", unit: "ns"},
	{name: "packet.strides_ns_per_pkt", unit: "ns"},
	{name: "flowcache.hit_ratio", unit: "ratio", higher: true},
	{name: "flowcache.self_ns_per_pkt", unit: "ns"},
	{name: "flowcache.evictions_per_kpkt", unit: "count"},
	{name: "flowcache.stale_drops_per_kpkt", unit: "count"},
	{name: "flowcache.bytes_per_entry", unit: "B"},
	{name: "stridebv.classify_ns_per_pkt", unit: "ns"},
	{name: "stridebv.words_per_pkt", unit: "count"},
	{name: "stridebv.ns_per_word", unit: "ns"},
	{name: "stridebv.match_vector_ns_per_pkt", unit: "ns"},
	{name: "penc.encode_ns_per_pkt", unit: "ns"},
	{name: "stridebv.build_ms", unit: "ms"},
	{name: "stridebv.memory_bits", unit: "bit"},
	{name: "tcam.classify_ns_per_pkt", unit: "ns"},
	{name: "tcam.entries", unit: "count"},
	{name: "tcam.ns_per_entry", unit: "ns"},
	{name: "tcam.build_ms", unit: "ms"},
	{name: "partition.classify_ns_per_pkt", unit: "ns"},
	{name: "partition.self_ns_per_pkt", unit: "ns"},
	{name: "partition.subcalls_per_batch", unit: "count"},
	{name: "partition.parts", unit: "count"},
	{name: "partition.pool_size", unit: "count"},
	{name: "partition.inline_fallbacks", unit: "count"},
	{name: "partition.build_ms", unit: "ms"},
	{name: "serve.self_ns_per_pkt", unit: "ns"},
	{name: "serve.residual_ns_per_pkt", unit: "ns"},
	{name: "serve.queue_wait_p50_us", unit: "us"},
	{name: "serve.scatter_p50_us", unit: "us"},
	{name: "serve.worker_busy_frac", unit: "ratio", higher: true},
	{name: "serve.imbalance_index", unit: "ratio"},
	{name: "serve.allocs_per_batch", unit: "count"},
	{name: "serve.new_ms", unit: "ms"},
	{name: "serve.batch_p99_us", unit: "us"},
	{name: "update.apply_to_ruleset_us_per_swap", unit: "us"},
	{name: "update.deltas_us_per_swap", unit: "us"},
	{name: "update.apply_deltas_us_per_swap", unit: "us"},
	{name: "update.verify_scoped_us_per_swap", unit: "us"},
	{name: "update.rebuild_ms", unit: "ms"},
	{name: "update.incremental_swaps", unit: "count", higher: true},
	{name: "update.fallbacks", unit: "count"},
	{name: "update.rollbacks", unit: "count"},
	{name: "update.late_p99_ms", unit: "ms"},
	{name: "update.swap_p50_us", unit: "us"},
	{name: "update.swap_p99_us", unit: "us"},
	{name: "core.linear_ns_per_pkt", unit: "ns"},
	{name: "bench.trace_overhead_frac", unit: "ratio"},
	{name: "bench.gc_cycles", unit: "count"},
}

// reports tells whether a workload prints an end-to-end metric.
func (m metric) reports(workload string) bool { return m.only == "" || m.only == workload }

// harness tells whether the metric is in BENCHMARK.json's end_to_end list:
// every workload prints it and it is gated.
func (m metric) harness() bool { return m.only == "" && m.bound > 0 }
