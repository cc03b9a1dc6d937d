package main

import "fmt"

// metricSpec names one metric of the benchmark. BENCHMARK.json lists
// the same names, units and directions; a test keeps the two in step.
type metricSpec struct {
	name   string
	unit   string
	better string
}

// endToEnd are the gated metrics: what a user of the system sees and
// this host can measure to within their bounds. Every workload reports
// all of them from its untraced run.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"heap_live_mb", "MiB", "lower"},
	{"rank_alloc_kb", "KiB", "lower"},
}

// ungated are the metrics of the load as a whole that a user sees first
// but that do not repeat within a tenth on a shared host: wall-clock
// moves 6-49 % between runs of the same code and the memory high-water
// mark 2-10 % (README.md, "Why the clock is not gated"). They carry no
// bound: the untraced run prints them, the traced run reports them at
// the head of the per-layer metrics.
var ungated = []metricSpec{
	{"rank_per_s", "1/s", "higher"},
	{"rank_p50_ms", "ms", "lower"},
	{"rank_p90_ms", "ms", "lower"},
	{"update_p50_ms", "ms", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayer are the metrics without a bound, taken in the traced run:
// the ungated load metrics, then the single layers. A workload that
// never enters a layer reports 0 for that layer's metrics. README.md
// says which end-to-end metric each should move.
var perLayer = append(ungated[:len(ungated):len(ungated)], []metricSpec{
	{"matrix.spmv_ns_per_nnz", "ns/nnz", "lower"},
	{"matrix.spmv_gbps_computed", "GB/s", "higher"},
	{"matrix.powerleft_ms", "ms", "lower"},
	{"matrix.powerleft_iters", "count", "lower"},
	{"matrix.powerleft_allocs", "count", "lower"},

	{"pagerank.solve_flat_ms", "ms", "lower"},
	{"pagerank.solve_flat_iters", "count", "lower"},
	{"pagerank.solve_site_ms", "ms", "lower"},
	{"pagerank.solve_allocs", "count", "lower"},

	{"graph.decode_gob_ms", "ms", "lower"},
	{"graph.derive_sitegraph_ms", "ms", "lower"},
	{"graph.transition_ms", "ms", "lower"},
	{"graph.local_subgraph_ms", "ms", "lower"},
	{"graph.clone_cow_ms", "ms", "lower"},

	{"lmm.new_ranker_ms", "ms", "lower"},
	{"lmm.prepare_ms", "ms", "lower"},
	{"lmm.rank_ms", "ms", "lower"},
	{"lmm.site_solve_ms", "ms", "lower"},
	{"lmm.local_solves_ms", "ms", "lower"},
	{"lmm.compose_ms", "ms", "lower"},
	{"lmm.site_iters", "count", "lower"},
	{"lmm.local_iters_total", "count", "lower"},
	{"lmm.rank_allocs", "count", "lower"},
	{"lmm.rebuild_on_ms", "ms", "lower"},
	{"lmm.rank_refresh_ms", "ms", "lower"},

	{"engine.construct_ms", "ms", "lower"},
	{"engine.first_rank_ms", "ms", "lower"},
	{"engine.rank_full_ms", "ms", "lower"},
	{"engine.front_self_ms", "ms", "lower"},
	{"engine.rank_topk_index_ms", "ms", "lower"},
	{"engine.rank_ms.doc", "ms", "lower"},
	{"engine.rank_ms.three", "ms", "lower"},
	{"engine.index_served_frac", "frac", "higher"},
	{"engine.coalesced_frac", "frac", "higher"},
	{"engine.overload_frac", "frac", "lower"},
	{"engine.allocs_per_rank", "count", "lower"},
	{"engine.bytes_per_rank", "B", "lower"},
	{"engine.gc_cycles", "count", "lower"},
	{"engine.gc_pause_ms", "ms", "lower"},
	{"engine.rank_p99_ms", "ms", "lower"},
	{"engine.update_loaded_p50_ms", "ms", "lower"},
	{"engine.update_count", "count", "higher"},
	{"load.update_lag_p99_ms", "ms", "lower"},

	{"partition.assign_ms", "ms", "lower"},
	{"partition.cut_frac", "frac", "lower"},

	{"dist.load_ms", "ms", "lower"},
	{"dist.local_phase_ms", "ms", "lower"},
	{"dist.siterank_ms", "ms", "lower"},
	{"dist.rounds", "count", "lower"},
	{"dist.msgs_per_rank", "count", "lower"},
	{"dist.bytes_per_rank", "B", "lower"},
	{"dist.rtt_floor_ms", "ms", "lower"},
	{"dist.overhead_per_round_us", "us", "lower"},
	{"dist.update_shards_reshipped", "count", "lower"},
	{"dist.update_bytes", "B", "lower"},
	{"dist.cache_hits", "count", "higher"},
	{"wire.gob_roundtrip_us", "us", "lower"},
	{"wire.bytes_per_roundtrip", "B", "lower"},

	{"trace.overhead_frac", "frac", "lower"},
	{"host.calib_ns", "ns", "lower"},
	{"host.sleep_overshoot_p90_us", "us", "lower"},
}...)

// layerMetrics collects a traced run's per-layer values. Every metric
// starts at 0, so the output always carries the full list.
type layerMetrics struct {
	m map[string]metric
}

func newLayerMetrics() *layerMetrics {
	l := &layerMetrics{m: make(map[string]metric, len(perLayer))}
	for _, s := range perLayer {
		l.m[s.name] = metric{Unit: s.unit}
	}
	return l
}

func (l *layerMetrics) set(name string, v float64) {
	m, ok := l.m[name]
	if !ok {
		panic(fmt.Sprintf("lmmload: metric %q is not in the per-layer list", name))
	}
	m.Value = v
	l.m[name] = m
}
