package main

import "nfp/internal/nfa"

// metricDef names one reported metric; BENCHMARK.json lists the same
// names, units and directions (metrics_test.go holds the two together).
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change counts as a regression.
	Bound float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the dataplane sees, measured with
// tracing off. failed_ratio is not among them because it is 0 on every
// healthy run and a bound relative to 0 means nothing: it is reported
// through the result's attempted and failed counts, and any failure
// marks the run incorrect.
var endToEnd = []metricDef{
	{Name: "throughput_pps", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "latency_p50_us", Unit: "us", Better: lower, Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
}

// perLayer are the single-layer metrics of the traced run, named
// <module>.<what>. They carry no bound: they explain a movement of an
// end-to-end metric, they do not gate.
var perLayer = []metricDef{
	{Name: "nf." + nfa.NFL3Fwd + ".busy_ns_per_pkt", Unit: "ns", Better: lower},
	{Name: "nf." + nfa.NFVPN + ".busy_ns_per_pkt", Unit: "ns", Better: lower},
	{Name: "nf." + nfa.NFIDS + ".busy_ns_per_pkt", Unit: "ns", Better: lower},
	{Name: "nf." + nfa.NFMonitor + ".busy_ns_per_pkt", Unit: "ns", Better: lower},
	{Name: "nf." + nfa.NFFirewall + ".busy_ns_per_pkt", Unit: "ns", Better: lower},
	{Name: "nf." + nfa.NFLB + ".busy_ns_per_pkt", Unit: "ns", Better: lower},
	{Name: "nf.busy_share", Unit: "ratio", Better: higher},
	{Name: "nf.state_bytes_per_flow", Unit: "B", Better: lower},
	{Name: "runtime.heap_live_mb", Unit: "MB", Better: lower},
	{Name: "runtime.heap_growth_mb", Unit: "MB", Better: lower},

	{Name: "classifier.hit_ratio", Unit: "ratio", Better: higher},
	{Name: "classifier.evictions_per_pkt", Unit: "ratio", Better: lower},
	{Name: "classifier.hit_ns_per_pkt", Unit: "ns", Better: lower},
	{Name: "classifier.miss_ns_per_pkt", Unit: "ns", Better: lower},

	{Name: "dataplane.copies_per_pkt", Unit: "ratio", Better: lower},
	{Name: "dataplane.copied_bytes_per_pkt", Unit: "B", Better: lower},
	{Name: "dataplane.merger_items_per_pkt", Unit: "ratio", Better: lower},
	{Name: "dataplane.merger_imbalance", Unit: "ratio", Better: lower},
	{Name: "dataplane.span_classify_ns", Unit: "ns", Better: lower},
	{Name: "dataplane.span_ring_wait_ns", Unit: "ns", Better: lower},
	{Name: "dataplane.span_service_ns", Unit: "ns", Better: lower},
	{Name: "dataplane.span_merge_wait_ns", Unit: "ns", Better: lower},
	{Name: "dataplane.span_merge_ns", Unit: "ns", Better: lower},
	{Name: "dataplane.span_output_ns", Unit: "ns", Better: lower},
	{Name: "dataplane.inject_wait_ns_per_pkt", Unit: "ns", Better: lower},
	{Name: "dataplane.reload_ms_p50", Unit: "ms", Better: lower},
	{Name: "dataplane.reload_ms_max", Unit: "ms", Better: lower},
	{Name: "dataplane.reloads", Unit: "count", Better: higher},
	{Name: "dataplane.latency_p90_us", Unit: "us", Better: lower},
	{Name: "dataplane.latency_p99_us", Unit: "us", Better: lower},
	{Name: "dataplane.latency_p999_us", Unit: "us", Better: lower},
	{Name: "dataplane.unexpected_drops", Unit: "count", Better: lower},
	{Name: "dataplane.add_graph_us", Unit: "us", Better: lower},
	{Name: "dataplane.start_ms", Unit: "ms", Better: lower},

	{Name: "mempool.alloc_free_ns_per_pkt", Unit: "ns", Better: lower},
	{Name: "mempool.alloc_fail_ratio", Unit: "ratio", Better: lower},
	{Name: "ring.enq_deq_ns_per_pkt", Unit: "ns", Better: lower},
	{Name: "ring.mpsc_enq_deq_ns_per_pkt", Unit: "ns", Better: lower},
	{Name: "packet.build_ns_per_pkt", Unit: "ns", Better: lower},
	{Name: "packet.parse_ns_per_pkt", Unit: "ns", Better: lower},
	{Name: "packet.header_copy_ns_per_pkt", Unit: "ns", Better: lower},
	{Name: "packet.full_copy_ns_per_pkt", Unit: "ns", Better: lower},
	{Name: "core.compile_us", Unit: "us", Better: lower},

	{Name: "runtime.cpu_ns_per_pkt", Unit: "ns", Better: lower},
	{Name: "runtime.allocs_per_pkt", Unit: "ratio", Better: lower},
	{Name: "runtime.alloc_bytes_per_pkt", Unit: "B", Better: lower},
	{Name: "runtime.gc_cycles", Unit: "count", Better: lower},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: lower},

	{Name: "gen.build_share", Unit: "ratio", Better: lower},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: higher},
	{Name: "trace.incomplete_ratio", Unit: "ratio", Better: lower},
	{Name: "trace.span_samples", Unit: "count", Better: higher},
	{Name: "failed_ratio", Unit: "ratio", Better: lower},
}
