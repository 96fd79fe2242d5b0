// Package diagnose turns the raw telemetry substrate (counters,
// gauges, histograms) into live answers: which NF is the bottleneck,
// which flows are driving the load, and is the chain meeting its
// latency objective. It runs entirely off-hot-path — a background
// sampler snapshots the registry on an interval into a fixed ring of
// time-series samples, and every verdict is computed from deltas
// between retained samples, so the dataplane pays nothing beyond the
// atomics it already maintains.
package diagnose

import (
	"sync"
	"time"

	"nfp/internal/telemetry"
	"nfp/internal/telemetry/flightrec"
)

// Metric families the sampler reads. They match the names the
// dataplane server registers.
const (
	metricNFPacketsIn = "nfp_nf_packets_in_total"
	metricNFSvcTime   = "nfp_nf_service_time_ns"
	metricNFRingHW    = "nfp_nf_ring_high_water"
	metricNFRingCap   = "nfp_nf_ring_capacity"
	metricNFHealthy   = "nfp_nf_healthy"
	metricNFPanics    = "nfp_nf_panics_total"
	metricE2ELatency  = "nfp_e2e_latency_ns"
	metricCacheHits   = "nfp_classifier_cache_hits_total"
	metricCacheMisses = "nfp_classifier_cache_misses_total"
	metricCacheEvicts = "nfp_classifier_cache_evictions_total"
	metricClassRules  = "nfp_classifier_rules"
	metricClassTuples = "nfp_classifier_tuples"
)

// Gauges the diagnoser exports back into the registry (created with
// the idempotent Registry.Gauge, so re-creating a Diagnoser over the
// same registry is safe).
const (
	gaugeRhoMilli     = "nfp_nf_rho_milli"
	gaugeHealthState  = "nfp_health_state"
	gaugeSLOTargetP99 = "nfp_slo_p99_target_ns"
	gaugeSLOBurnMilli = "nfp_slo_burn_milli"
)

// The sampling window and the health state machine's utilization
// thresholds.
const (
	// window is how many samples the ring retains; rates and deltas
	// span oldest→newest retained sample.
	window = 60
	// rhoDegraded and rhoOverloaded are the ρ at which an NF makes the
	// state degraded and overloaded.
	rhoDegraded   = 0.8
	rhoOverloaded = 0.95
)

// Config parameterizes a Diagnoser. Zero values get defaults.
type Config struct {
	// Registry is the metric registry to sample (required).
	Registry *telemetry.Registry
	// Interval between background samples (default 1s). Ignored by
	// SampleNow callers.
	Interval time.Duration
	// SLOTargetP99 is the per-chain p99 latency objective. Zero means
	// no SLO is configured and SLO evaluation is skipped.
	SLOTargetP99 time.Duration
	// TopK, when set, is served at /debug/topflows and reported by
	// Report. The sketch is fed by the dataplane, not the sampler.
	TopK *TopK
}

// sample is one point of the time series: the summary snapshot, its
// series indexed by telemetry.SeriesKey, and full-bucket histogram
// snapshots (by the same key) of the families rates and window
// percentiles are computed from.
type sample struct {
	ts    time.Time
	snap  telemetry.Snapshot
	idx   telemetry.Index
	hists map[string]telemetry.HistSnapshot
}

// Diagnoser owns the sampling ring and the derived verdicts.
type Diagnoser struct {
	cfg Config
	// rec and onTransition are wired after construction (SetRecorder,
	// SetOnTransition).
	rec          *flightrec.Recorder
	onTransition func(old, new string, reasons []string)

	mu        sync.Mutex
	ring      []sample
	head      int // next write position
	n         int // filled entries
	prevState string
	stopped   chan struct{}
	done      chan struct{}
}

// New creates a Diagnoser over cfg.Registry. Call Start for background
// sampling, or SampleNow for explicit (test-driven) sampling.
func New(cfg Config) *Diagnoser {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	return &Diagnoser{cfg: cfg, ring: make([]sample, window)}
}

// SetRecorder wires the flight recorder, which then receives one health
// event per state transition on its event ring. It comes after
// construction because nfpd builds the diagnoser (the server's
// FlowObserver) before the server that owns the recorder exists. Call
// before Start.
func (d *Diagnoser) SetRecorder(rec *flightrec.Recorder) { d.rec = rec }

// SetOnTransition wires the hook that fires — off the hot path, on the
// sampler goroutine — when the health state WORSENS to degraded or
// overloaded: the incident-snapshot trigger. Recoveries and first
// verdicts are recorded on the event ring but do not fire it. Call
// before Start.
func (d *Diagnoser) SetOnTransition(fn func(old, new string, reasons []string)) {
	d.onTransition = fn
}

// Start launches the background sampling loop. Stop once per Start.
func (d *Diagnoser) Start() {
	d.mu.Lock()
	if d.stopped != nil {
		d.mu.Unlock()
		return
	}
	d.stopped = make(chan struct{})
	d.done = make(chan struct{})
	stop, done := d.stopped, d.done
	d.mu.Unlock()
	go func() {
		defer close(done)
		tick := time.NewTicker(d.cfg.Interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				d.SampleNow()
			}
		}
	}()
}

// Stop halts the background loop and waits for it to exit. Safe to
// call without Start, or twice.
func (d *Diagnoser) Stop() {
	d.mu.Lock()
	stop, done := d.stopped, d.done
	d.stopped, d.done = nil, nil
	d.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// SampleNow takes one sample immediately and refreshes the exported
// gauges. Tests drive the ring deterministically through it.
func (d *Diagnoser) SampleNow() {
	d.sampleAt(time.Now())
}

func (d *Diagnoser) sampleAt(ts time.Time) {
	reg := d.cfg.Registry
	s := sample{ts: ts, snap: reg.Snapshot(), hists: map[string]telemetry.HistSnapshot{}}
	s.idx = s.snap.Index()
	for _, fam := range []string{metricNFSvcTime, metricE2ELatency} {
		for _, hs := range reg.HistogramFamily(fam) {
			s.hists[telemetry.SeriesKey(fam, hs.Labels)] = hs.H.Snapshot()
		}
	}
	d.mu.Lock()
	d.ring[d.head] = s
	d.head = (d.head + 1) % len(d.ring)
	if d.n < len(d.ring) {
		d.n++
	}
	d.mu.Unlock()
	rep := d.Report()
	d.exportGauges(rep)
	d.noteTransition(rep)
}

// noteTransition compares the fresh verdict against the previous one:
// every change lands as a health event on the flight recorder's ring,
// and a worsening to degraded/overloaded fires the SetOnTransition hook
// (the incident-snapshot trigger). The first verdict seeds the state
// without an event — a booting server is not an incident.
func (d *Diagnoser) noteTransition(rep HealthReport) {
	d.mu.Lock()
	old := d.prevState
	d.prevState = rep.State
	d.mu.Unlock()
	if old == "" || old == rep.State {
		return
	}
	if rec := d.rec; rec != nil {
		rec.Record(0, flightrec.Record{
			Kind:   flightrec.KindHealth,
			Detail: rec.Intern(old + "->" + rep.State),
		})
	}
	worse := rep.State == StateOverloaded ||
		rep.State == StateDegraded && old != StateOverloaded
	if worse && d.onTransition != nil {
		d.onTransition(old, rep.State, rep.Reasons)
	}
}

// window returns the oldest and newest retained samples. ok is false
// until two samples exist.
func (d *Diagnoser) window() (oldest, newest sample, n int, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.n < 2 {
		return sample{}, sample{}, d.n, false
	}
	newestIdx := (d.head - 1 + len(d.ring)) % len(d.ring)
	oldestIdx := (d.head - d.n + len(d.ring)) % len(d.ring)
	return d.ring[oldestIdx], d.ring[newestIdx], d.n, true
}

// exportGauges publishes the report's headline numbers back into the
// registry so any Prometheus scraper sees the diagnosis too. A row's
// gauge carries the row's labels, shard included on a sharded server,
// so each shard's instance keeps its own value.
func (d *Diagnoser) exportGauges(rep HealthReport) {
	reg := d.cfg.Registry
	reg.Gauge(gaugeHealthState).Set(int64(stateValue(rep.State)))
	if d.cfg.SLOTargetP99 > 0 {
		reg.Gauge(gaugeSLOTargetP99).Set(int64(d.cfg.SLOTargetP99))
	}
	for _, nf := range rep.Bottlenecks {
		reg.Gauge(gaugeRhoMilli, withShard(nf.Shard,
			telemetry.L("nf", nf.NF), telemetry.L("mid", nf.MID))...,
		).Set(int64(nf.Rho * 1000))
	}
	for _, slo := range rep.SLO {
		reg.Gauge(gaugeSLOBurnMilli, withShard(slo.Shard, telemetry.L("mid", slo.MID))...).Set(int64(slo.BurnRate * 1000))
	}
}

// withShard appends the shard label when the row has one (a sharded
// server's series); unsharded rows keep their label set unchanged.
func withShard(shard string, labels ...telemetry.Label) []telemetry.Label {
	if shard == "" {
		return labels
	}
	return append(labels, telemetry.L("shard", shard))
}
