package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"nfp/internal/telemetry"
)

const (
	// A run sets the workload up at least minSetupReps times, and keeps
	// going until the set-ups add up to setupBudget or reach
	// maxSetupReps: a millisecond-sized set-up needs many repetitions
	// before its median holds still. setup_s is the median; the last
	// set-up is the one measured on.
	minSetupReps = 5
	maxSetupReps = 200
	setupBudget  = time.Second
	// outDir receives result.json, aa.json and the Chrome traces.
	outDir = "bench/out"
)

// result is one run of one workload: either the end-to-end metrics
// (tracing off) or the per-layer metrics (traced).
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Counts are the packets each phase moved and the samples each
	// percentile rests on.
	Counts   map[string]uint64 `json:"counts"`
	Warnings []string          `json:"warnings,omitempty"`
}

func newResult(w *workload, seed int64, seconds int, traced bool) *result {
	return &result{
		Workload: w.name, Seed: seed, Seconds: seconds, Traced: traced,
		Metrics: map[string]float64{}, Counts: map[string]uint64{},
	}
}

func (r *result) warnf(format string, args ...any) {
	r.Warnings = append(r.Warnings, fmt.Sprintf(format, args...))
}

// runCheck replays the correctness check and books it on the result.
func (r *result) runCheck(w *workload, tr *traffic) error {
	chk, err := check(w, tr, checkPackets)
	if err != nil {
		return err
	}
	r.Attempted += chk.packets
	r.Failed += chk.failed()
	r.Counts["check_packets"] = chk.packets
	if n := chk.failed(); n > 0 {
		r.warnf("correctness check failed: %d mismatched packets, drop difference %d, conservation %+v",
			chk.mismatched, chk.dropDiff, chk.fail)
	}
	return nil
}

// retire stops a rig, books its traffic and failures and returns the
// latter.
func (r *result) retire(g *rig) failures {
	f := g.stop()
	r.Attempted += g.sent
	r.Failed += f.total()
	if f.total() > 0 {
		r.warnf("conservation broken: %+v", f)
	}
	if g.reloadSkips > 0 {
		r.warnf("%d reload requests skipped: reloads are slower than their interval", g.reloadSkips)
	}
	return f
}

// latencyCounts books the sample counts of a one-burst phase and warns
// when percentile top, quoted from samples of which the smallest set
// quoted from holds smallest, rests on fewer than ten samples beyond it.
func (r *result) latencyCounts(lat latencySlices, smallest int, unkept uint64, top float64) {
	total, _ := lat.count()
	r.Counts["latency_samples"] = uint64(total)
	r.Counts["latency_slices"] = uint64(len(lat))
	if supportedPercentile(smallest) < top {
		r.warnf("p%v is quoted from %d samples: fewer than 10 lie beyond it", top, smallest)
	}
	if unkept > 0 {
		r.warnf("%d latency samples beyond the buffer were not kept", unkept)
	}
}

// runE2E measures the end-to-end metrics of one workload with tracing
// off. Each of the seconds is one cycle of a throughput window and a
// one-burst stretch of the same length, so both metrics see the whole
// run and a slow stretch of the host costs each of them the same few
// cycles. buf holds the latency samples.
func runE2E(w *workload, seed int64, seconds int, buf []uint32) (*result, error) {
	res := newResult(w, seed, seconds, false)
	if err := res.runCheck(w, newTraffic(w, seed)); err != nil {
		return nil, err
	}

	var g *rig
	var setups []float64
	var spent time.Duration
	for i := 0; i < maxSetupReps && (i < minSetupReps || spent < setupBudget); i++ {
		if g != nil {
			res.retire(g)
		}
		runtime.GC() // every repetition starts from the same heap
		t0 := time.Now()
		var err error
		if g, _, err = newRig(w, newTraffic(w, seed), benchConfig(), false, nil); err != nil {
			return nil, err
		}
		g.warmUp()
		dt := time.Since(t0)
		spent += dt
		setups = append(setups, dt.Seconds())
	}
	res.Metrics["setup_s"] = median(setups)
	res.Counts["setups"] = uint64(len(setups))
	res.Counts["warmup_packets"] = g.sent

	runtime.GC()
	g.col.samples = buf[:0]
	g.startReloader(w.reloadEvery)
	var rates []float64
	var lat latencySlices
	for i := 0; i < seconds; i++ {
		sent := g.sent
		rates = append(rates, g.throughput(1)...)
		res.Counts["throughput_packets"] += g.sent - sent
		sent = g.sent
		lat = append(lat, g.latency(int(window/latencySlice))...)
		res.Counts["latency_packets"] += g.sent - sent
	}
	g.stopReloader()
	res.Metrics["throughput_pps"] = slices.Max(rates)
	res.Counts["throughput_windows"] = uint64(len(rates))
	res.Metrics["latency_p50_us"] = lat.best(50) / 1e3
	_, smallest := lat.count()
	res.latencyCounts(lat, smallest, g.col.unkept, 50)
	res.Counts["reloads"] = uint64(len(g.reloadMS))

	res.retire(g)
	res.Correct = res.Failed == 0
	return res, nil
}

// runLayers measures the per-layer metrics of one workload: counter
// and runtime metrics on an untraced server, NF busy time and span
// medians on a second server with tracing and NF timing wrappers on,
// then each layer alone. Each of the four timed phases gets a quarter
// of seconds, in one piece: the counters read around a phase then belong
// to one load shape.
func runLayers(w *workload, seed int64, seconds int, buf []uint32) (*result, error) {
	res := newResult(w, seed, seconds, true)
	m := res.Metrics
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	tr := newTraffic(w, seed)
	if err := res.runCheck(w, tr); err != nil {
		return nil, err
	}
	phase := time.Duration(seconds) * time.Second / 4
	windows, latSlices := max(1, int(phase/window)), max(1, int(phase/latencySlice))

	// Untraced server: the program as users run it. heapBase is what the
	// harness itself holds (traffic tables, sample buffer), so that
	// runtime.heap_live_mb is the server's own live heap.
	heapBase := heapLiveMB()
	g, st, err := newRig(w, tr, benchConfig(), false, nil)
	if err != nil {
		return nil, err
	}
	m["core.compile_us"] = float64(st.compile) / 1e3
	m["dataplane.add_graph_us"] = float64(st.addGraph) / 1e3
	m["dataplane.start_ms"] = float64(st.start) / 1e6
	heapStart := heapLiveMB()
	g.warmUp()
	heapWarm := heapLiveMB()
	m["nf.state_bytes_per_flow"] = (heapWarm - heapStart) * (1 << 20) / float64(w.flows)

	g.col.samples = buf[:0]
	g.startReloader(w.reloadEvery)
	before := g.probe()
	rates := g.throughput(windows)
	counterMetrics(m, before, g.probe())
	lat := g.latency(latSlices)
	g.stopReloader()
	// The tails are the whole phase's: a best slice is by construction
	// one the tail events missed.
	all := g.col.samples
	slices.Sort(all)
	m["dataplane.latency_p90_us"] = float64(percentile(all, 90)) / 1e3
	m["dataplane.latency_p99_us"] = float64(percentile(all, 99)) / 1e3
	m["dataplane.latency_p999_us"] = float64(percentile(all, 99.9)) / 1e3
	res.latencyCounts(lat, len(all), g.col.unkept, 99.9)
	heapEnd := heapLiveMB()
	m["runtime.heap_live_mb"] = heapEnd - heapBase
	m["runtime.heap_growth_mb"] = heapEnd - heapWarm
	m["dataplane.reloads"] = float64(len(g.reloadMS))
	if len(g.reloadMS) > 0 {
		m["dataplane.reload_ms_p50"] = median(g.reloadMS)
		m["dataplane.reload_ms_max"] = slices.Max(g.reloadMS)
	}
	res.Counts["untraced_packets"] = g.sent
	m["dataplane.unexpected_drops"] = float64(res.retire(g).unexpected)

	// Traced server: same traffic, spans sampled 1 in 64, every NF
	// behind a timing wrapper.
	cfg := benchConfig()
	cfg.TraceSampleRate = 64
	cfg.TraceCapacity = 1 << 16 // keeps the whole one-burst phase's spans
	clocks := newNFClocks()
	if g, _, err = newRig(w, tr, cfg, false, clocks.wrap); err != nil {
		return nil, err
	}
	g.warmUp()
	clocks.reset() // drained: no runtime is inside an NF
	g.startReloader(w.reloadEvery)
	cpu0 := cpuNS()
	tracedRates := g.throughput(windows)
	m["nf.busy_share"] = ratio(float64(clocks.busyNS()), float64(cpuNS()-cpu0))
	for name, clk := range clocks {
		m["nf."+name+".busy_ns_per_pkt"] = ratio(float64(clk.busyNS.Load()), float64(clk.pkts.Load()))
	}
	m["trace.overhead_ratio"] = ratio(slices.Max(tracedRates), slices.Max(rates))

	since := time.Now().UnixNano()
	g.col.samples = buf[:0]
	g.latency(latSlices)
	g.stopReloader()
	events := g.srv.Tracer().Events()
	spanMetrics(m, events, since)
	res.Counts["traced_packets"] = g.sent
	res.retire(g)
	if err := writeTrace(w.name, events); err != nil {
		return nil, err
	}

	isolatedMetrics(m, w, tr)

	res.Correct = res.Failed == 0
	m["failed_ratio"] = float64(res.Failed) / float64(res.Attempted)
	if m["gen.build_share"] > 0.3 {
		res.warnf("gen.build_share %.2f > 0.3: the generator, not the dataplane, dominates this run", m["gen.build_share"])
	}
	if m["trace.incomplete_ratio"] > 0.05 {
		res.warnf("trace.incomplete_ratio %.3f > 0.05: span medians rest on evicted or unfinished chains", m["trace.incomplete_ratio"])
	}
	return res, nil
}

// writeTrace writes the retained spans as a Chrome trace (load it in
// chrome://tracing or ui.perfetto.dev).
func writeTrace(workload string, events []telemetry.TraceEvent) (err error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(outDir, "trace_"+workload+".json"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return telemetry.WriteChromeTrace(f, events)
}
