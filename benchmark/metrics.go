package main

// metricSpec names one metric; BENCHMARK.json lists the same table (a test
// holds the two together).
type metricSpec struct {
	name   string
	unit   string
	higher bool    // higher is better
	bound  float64 // end-to-end only: relative worsening that is a regression
}

func (m metricSpec) better() string {
	if m.higher {
		return "higher"
	}
	return "lower"
}

// endToEnd are the ten metrics a user of the server sees. Every workload
// reports all ten. The timed ones carry the largest bound the contract
// allows: the reference box has a slow mode that puts a quartile spread of
// 5-22 % on every timed cell (the A/A table in README.md), so a tighter bound
// would fire on the box, not on the code. The live heap repeats to 0.01 %.
var endToEnd = []metricSpec{
	{"setup_s", "s", false, 0.25},
	{"ops_per_s", "1/s", true, 0.25},
	{"read_p50_ms", "ms", false, 0.25},
	{"cold_p50_ms", "ms", false, 0.25},
	{"updates_per_s", "1/s", true, 0.25},
	{"bulk_updates_per_s", "1/s", true, 0.25},
	{"write_p50_ms", "ms", false, 0.25},
	{"recover_s", "s", false, 0.25},
	{"cpu_s_per_kop", "s", false, 0.25},
	{"heap_live_mb", "MB", false, 0.05},
}

// perLayer are the layer metrics of a traced run, timed from outside each
// layer's public functions. They are informational: no bound.
var perLayer = []metricSpec{
	{name: "httpapi.wire_us", unit: "us"},
	{name: "httpapi.topk_handler_us", unit: "us"},
	{name: "httpapi.estimate_handler_us", unit: "us"},
	{name: "httpapi.read_p99_ms", unit: "ms"},
	{name: "httpapi.coalesced_share", unit: "ratio"},
	{name: "httpapi.edges_decode_us", unit: "us"},
	{name: "httpapi.write_p99_ms", unit: "ms"},
	{name: "httpapi.shed_count", unit: "count"},
	{name: "httpapi.metrics_scrape_ms", unit: "ms"},
	{name: "service.topk_ns", unit: "ns"},
	{name: "service.estimate_ns", unit: "ns"},
	{name: "service.batch_ms", unit: "ms"},
	{name: "service.queue_wait_ms", unit: "ms"},
	{name: "service.pushes_per_update", unit: "count"},
	{name: "service.delta_publish_share", unit: "ratio", higher: true},
	{name: "service.compactions", unit: "count"},
	{name: "service.compaction_ms", unit: "ms"},
	{name: "service.coldstart_s", unit: "s"},
	{name: "ondemand.cold_query_ms", unit: "ms"},
	{name: "ondemand.cached_query_us", unit: "us"},
	{name: "ondemand.repin_ms", unit: "ms"},
	{name: "ondemand.alloc_kb_per_query", unit: "KB"},
	{name: "ondemand.cache_hit_share", unit: "ratio", higher: true},
	{name: "ondemand.cold_pushes", unit: "count"},
	{name: "push.coldpush_ms", unit: "ms"},
	{name: "push.coldpush_alloc_kb", unit: "KB"},
	{name: "push.seq_batch_ms", unit: "ms"},
	{name: "push.seq_small_batch_ms", unit: "ms"},
	{name: "push.paropt_batch_ms", unit: "ms"},
	{name: "push.publish_us", unit: "us"},
	{name: "push.topk_index_ns", unit: "ns"},
	{name: "push.mean_frontier", unit: "count"},
	{name: "parallel.det_p1_batch_ms", unit: "ms"},
	{name: "parallel.det_pn_batch_ms", unit: "ms"},
	{name: "parallel.det_small_batch_ms", unit: "ms"},
	{name: "parallel.speedup_vs_seq", unit: "x", higher: true},
	{name: "parallel.small_speedup_vs_seq", unit: "x", higher: true},
	{name: "graph.apply_us_per_update", unit: "us"},
	{name: "graph.view_us", unit: "us"},
	{name: "graph.snapshot_ms", unit: "ms"},
	{name: "graph.compact_ms", unit: "ms"},
	{name: "graph.delta_edges_end", unit: "count"},
	{name: "graph.fromedges_s", unit: "s"},
	{name: "wal.append_none_us", unit: "us"},
	{name: "wal.append_always_us", unit: "us"},
	{name: "wal.bytes_per_update", unit: "B"},
	{name: "wal.scan_ms", unit: "ms"},
	{name: "ckpt.encode_ms", unit: "ms"},
	{name: "ckpt.write_ms", unit: "ms"},
	{name: "ckpt.load_ms", unit: "ms"},
	{name: "ckpt.bytes_per_edge", unit: "B"},
	{name: "persist.checkpoint_ms", unit: "ms"},
	{name: "persist.replay_share", unit: "ratio"},
	{name: "gen.edgelist_s", unit: "s"},
	{name: "proc.peak_rss_mb", unit: "MB"},
	{name: "proc.gc_cpu_share", unit: "ratio"},
	{name: "proc.alloc_mb_per_kop", unit: "MB"},
	{name: "proc.rep_spread", unit: "x"},
	{name: "proc.gen_late_p50_ms", unit: "ms"},
	{name: "proc.goroutines_end", unit: "count"},
	{name: "trace.overhead_share", unit: "ratio"},
	{name: "trace.e2e_gap_share", unit: "ratio"},
}

// values maps metric names to measured values.
type values map[string]float64
