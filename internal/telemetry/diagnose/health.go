package diagnose

import (
	"fmt"
	"sort"

	"nfp/internal/telemetry"
	"nfp/internal/telemetry/flightrec"
)

// Health states, from best to worst. The state machine:
//
//	unknown    fewer than two samples retained — no window to judge.
//	ok         no rule below fired.
//	degraded   any NF unhealthy or panicking this window, any ρ ≥
//	           RhoDegraded, or any chain burning error budget (> 1×).
//	overloaded any ρ ≥ RhoOverloaded, packets shed this window, or a
//	           chain burning ≥ 10× its error budget.
//
// Overloaded wins over degraded; every fired rule is listed in Reasons.
const (
	StateUnknown    = "unknown"
	StateOK         = "ok"
	StateDegraded   = "degraded"
	StateOverloaded = "overloaded"
)

// stateValue maps a state to the exported nfp_health_state gauge value.
func stateValue(state string) int {
	switch state {
	case StateOK:
		return 1
	case StateDegraded:
		return 2
	case StateOverloaded:
		return 3
	}
	return 0
}

// NFDiag is one NF's windowed diagnosis. Rho is the queueing-model
// utilization estimate ρ = arrival rate × mean service time: above 1
// the NF cannot drain its offered load and its ring must grow.
type NFDiag struct {
	NF  string `json:"nf"`
	MID string `json:"mid"`
	// Shard identifies the dataplane shard this instance runs on
	// (empty on an unsharded server, where series carry no shard
	// label). Each shard's instance is diagnosed independently: a hot
	// flow overloading one shard shows as that shard's ρ, not an
	// average smeared across the others.
	Shard string `json:"shard,omitempty"`

	ArrivalPPS    float64 `json:"arrival_pps"`
	MeanServiceNS float64 `json:"mean_service_ns"`
	Rho           float64 `json:"rho"`

	RingHighWater int64   `json:"ring_high_water"`
	RingCapacity  int64   `json:"ring_capacity"`
	RingFill      float64 `json:"ring_fill"`
	RingRising    bool    `json:"ring_rising"`

	ShedPPS float64 `json:"shed_pps"`
	DropPPS float64 `json:"drop_pps"`
	Healthy bool    `json:"healthy"`

	Verdict string `json:"verdict"`
}

// ChainSLO is one chain's (match rule's) latency-objective evaluation
// over the window. BurnRate is the error-budget burn: for an SLO of
// "p99 ≤ target", the budget is 1% of samples; burn = violation
// fraction / 1%. Burn 1.0 consumes the budget exactly; above it the
// chain is out of SLO.
type ChainSLO struct {
	MID string `json:"mid"`
	// Shard qualifies the series on a sharded server (empty when
	// unsharded): each shard's e2e histogram is judged against the
	// same per-chain objective.
	Shard       string  `json:"shard,omitempty"`
	TargetP99NS uint64  `json:"target_p99_ns"`
	WindowP99NS uint64  `json:"window_p99_ns"`
	WindowCount uint64  `json:"window_count"`
	Violations  uint64  `json:"violations"`
	BurnRate    float64 `json:"burn_rate"`
	Met         bool    `json:"met"`
}

// ClassifierDiag is the windowed view of the classifier: the microflow
// cache in front and the compiled rule index behind it. HitRate near 1
// means steady-state flows ride the exact-match fast path. A
// persistently low rate with high EvictPPS means the live flow count
// exceeds the cache (4096 flows per shard: add shards); a low rate with
// near-zero evictions points at churn — every table mutation
// invalidates all entries, so constant rule updates keep the cache cold.
//
// What a miss then costs is set by Tuples, not Rules: the index probes
// one hash table per distinct mask tuple (prefix lengths × port masks ×
// proto wildcard) however many rules share it. Tuples far below Rules
// is healthy at any table size; Tuples drifting toward Rules means the
// table is degenerating into one mask per rule and misses are back to a
// linear walk — regularise the rules' prefix lengths and port ranges
// rather than growing the cache. Tuples describes the last index a
// miss compiled, so it trails Rules until traffic reaches a new table.
type ClassifierDiag struct {
	CacheHitPPS   float64 `json:"cache_hit_pps"`
	CacheMissPPS  float64 `json:"cache_miss_pps"`
	CacheEvictPPS float64 `json:"cache_evict_pps"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
	Rules         int64   `json:"rules"`
	Tuples        int64   `json:"tuples"`
}

// HealthReport is the /debug/health document: the machine-readable
// verdict the ROADMAP autoscaler consumes.
type HealthReport struct {
	State         string          `json:"state"`
	Reasons       []string        `json:"reasons,omitempty"`
	WindowSeconds float64         `json:"window_seconds"`
	Samples       int             `json:"samples"`
	Bottlenecks   []NFDiag        `json:"bottlenecks"` // ranked by ρ, descending
	SLO           []ChainSLO      `json:"slo,omitempty"`
	Classifier    *ClassifierDiag `json:"classifier,omitempty"` // nil when no classifier is registered
}

// Report computes the current diagnosis from the retained window. With
// fewer than two samples the state is unknown and everything else is
// empty.
func (d *Diagnoser) Report() HealthReport {
	oldest, newest, n, ok := d.window()
	if !ok {
		return HealthReport{State: StateUnknown, Samples: n,
			Reasons: []string{"need at least 2 samples"}}
	}
	elapsed := newest.ts.Sub(oldest.ts).Seconds()
	rep := HealthReport{WindowSeconds: elapsed, Samples: n}
	if elapsed <= 0 {
		rep.State = StateUnknown
		rep.Reasons = []string{"window has zero duration"}
		return rep
	}

	rep.Bottlenecks = d.rankNFs(oldest, newest, elapsed)
	rep.SLO = d.evalSLO(oldest, newest)
	rep.Classifier = classifierDiag(oldest, newest, elapsed)
	rep.State, rep.Reasons = d.judge(oldest, newest, rep)
	return rep
}

// classifierDiag derives the classifier view from the window's counter
// deltas and the newest rule-table gauges. The section is omitted, rather
// than reported as all-zero, when the registry holds no classifier at
// all.
func classifierDiag(oldest, newest sample, elapsed float64) *ClassifierDiag {
	if !hasGauge(newest.snap, metricClassRules, nil) {
		return nil
	}
	hits := newest.snap.SumCounters(metricCacheHits) - oldest.snap.SumCounters(metricCacheHits)
	misses := newest.snap.SumCounters(metricCacheMisses) - oldest.snap.SumCounters(metricCacheMisses)
	evicts := newest.snap.SumCounters(metricCacheEvicts) - oldest.snap.SumCounters(metricCacheEvicts)
	cd := &ClassifierDiag{
		CacheHitPPS:   float64(hits) / elapsed,
		CacheMissPPS:  float64(misses) / elapsed,
		CacheEvictPPS: float64(evicts) / elapsed,
		Rules:         gaugeAt(newest.snap, metricClassRules, nil),
		Tuples:        gaugeAt(newest.snap, metricClassTuples, nil),
	}
	if hits+misses > 0 {
		cd.CacheHitRate = float64(hits) / float64(hits+misses)
	}
	return cd
}

// rankNFs builds the per-NF diagnosis, ranked by ρ descending.
func (d *Diagnoser) rankNFs(oldest, newest sample, elapsed float64) []NFDiag {
	var out []NFDiag
	for _, c := range newest.snap.Counters {
		if c.Name != metricNFPacketsIn {
			continue
		}
		nf, mid := c.Labels["nf"], c.Labels["mid"]
		nd := NFDiag{NF: nf, MID: mid, Shard: c.Labels["shard"], Healthy: true}

		inDelta := c.Value - counterAt(oldest.snap, metricNFPacketsIn, c.Labels)
		nd.ArrivalPPS = float64(inDelta) / elapsed

		k := histKey(metricNFSvcTime, c.Labels)
		svc := newest.hists[k].DeltaFrom(oldest.hists[k])
		if svc.Count > 0 {
			nd.MeanServiceNS = float64(svc.Sum) / float64(svc.Count)
		}
		nd.Rho = nd.ArrivalPPS * nd.MeanServiceNS / 1e9

		nd.RingHighWater = gaugeAt(newest.snap, metricNFRingHW, c.Labels)
		nd.RingCapacity = gaugeAt(newest.snap, metricNFRingCap, c.Labels)
		if nd.RingCapacity > 0 {
			nd.RingFill = float64(nd.RingHighWater) / float64(nd.RingCapacity)
		}
		nd.RingRising = nd.RingHighWater > gaugeAt(oldest.snap, metricNFRingHW, c.Labels)

		shedDelta := dropsAt(newest.snap, c.Labels, shedCauses) - dropsAt(oldest.snap, c.Labels, shedCauses)
		nd.ShedPPS = float64(shedDelta) / elapsed
		dropDelta := dropsAt(newest.snap, c.Labels, faultCauses) - dropsAt(oldest.snap, c.Labels, faultCauses)
		nd.DropPPS = float64(dropDelta) / elapsed

		if hasGauge(newest.snap, metricNFHealthy, c.Labels) {
			nd.Healthy = gaugeAt(newest.snap, metricNFHealthy, c.Labels) != 0
		}

		nd.Verdict = verdict(nd)
		out = append(out, nd)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Rho != out[j].Rho {
			return out[i].Rho > out[j].Rho
		}
		if out[i].NF != out[j].NF {
			return out[i].NF < out[j].NF
		}
		if out[i].MID != out[j].MID {
			return out[i].MID < out[j].MID
		}
		return out[i].Shard < out[j].Shard
	})
	return out
}

// verdict renders the one-line human summary ("nf=ids ρ=0.94, ring 87%
// full, rising").
func verdict(nd NFDiag) string {
	s := fmt.Sprintf("nf=%s", nd.NF)
	if nd.Shard != "" {
		s += " shard=" + nd.Shard
	}
	s += fmt.Sprintf(" ρ=%.2f", nd.Rho)
	if nd.RingCapacity > 0 {
		s += fmt.Sprintf(", ring %.0f%% full", nd.RingFill*100)
	}
	if nd.RingRising {
		s += ", rising"
	}
	if nd.ShedPPS > 0 {
		s += fmt.Sprintf(", shedding %.0f pps", nd.ShedPPS)
	}
	if !nd.Healthy {
		s += ", UNHEALTHY"
	}
	return s
}

// evalSLO evaluates the configured p99 objective per chain (MID) from
// the e2e latency histograms' window deltas.
func (d *Diagnoser) evalSLO(oldest, newest sample) []ChainSLO {
	if d.cfg.SLOTargetP99 <= 0 {
		return nil
	}
	target := uint64(d.cfg.SLOTargetP99.Nanoseconds())
	var out []ChainSLO
	for _, hs := range newest.snap.Histograms {
		if hs.Name != metricE2ELatency {
			continue
		}
		k := histKey(metricE2ELatency, hs.Labels)
		win := newest.hists[k].DeltaFrom(oldest.hists[k])
		slo := ChainSLO{MID: hs.Labels["mid"], Shard: hs.Labels["shard"], TargetP99NS: target}
		if win.Count > 0 {
			slo.WindowCount = win.Count
			slo.WindowP99NS = win.Percentile(99)
			slo.Violations = win.CountAbove(target)
			slo.BurnRate = (float64(slo.Violations) / float64(win.Count)) / 0.01
		}
		slo.Met = slo.BurnRate <= 1
		out = append(out, slo)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MID != out[j].MID {
			return out[i].MID < out[j].MID
		}
		return out[i].Shard < out[j].Shard
	})
	return out
}

// judge runs the health state machine over the assembled report.
func (d *Diagnoser) judge(oldest, newest sample, rep HealthReport) (string, []string) {
	var reasons []string
	state := StateOK
	raise := func(to string, reason string) {
		reasons = append(reasons, reason)
		if to == StateOverloaded || state != StateOverloaded && to == StateDegraded {
			state = to
		}
	}

	for _, nf := range rep.Bottlenecks {
		switch {
		case nf.Rho >= d.cfg.RhoOverloaded:
			raise(StateOverloaded, fmt.Sprintf("nf %s at ρ=%.2f ≥ %.2f", nfIdent(nf), nf.Rho, d.cfg.RhoOverloaded))
		case nf.Rho >= d.cfg.RhoDegraded:
			raise(StateDegraded, fmt.Sprintf("nf %s at ρ=%.2f ≥ %.2f", nfIdent(nf), nf.Rho, d.cfg.RhoDegraded))
		}
		if !nf.Healthy {
			raise(StateDegraded, fmt.Sprintf("nf %s reported unhealthy", nfIdent(nf)))
		}
	}

	if sheds := dropsAt(newest.snap, nil, shedCauses) - dropsAt(oldest.snap, nil, shedCauses); sheds > 0 {
		raise(StateOverloaded, fmt.Sprintf("%d packets shed this window", sheds))
	}
	if panics := newest.snap.SumCounters(metricNFPanics) - oldest.snap.SumCounters(metricNFPanics); panics > 0 {
		raise(StateDegraded, fmt.Sprintf("%d NF panics this window", panics))
	}

	for _, slo := range rep.SLO {
		ident := "mid=" + slo.MID
		if slo.Shard != "" {
			ident += " shard=" + slo.Shard
		}
		if slo.BurnRate >= 10 {
			raise(StateOverloaded, fmt.Sprintf("chain %s burning %.1f× its error budget", ident, slo.BurnRate))
		} else if !slo.Met {
			raise(StateDegraded, fmt.Sprintf("chain %s burning %.1f× its error budget", ident, slo.BurnRate))
		}
	}
	return state, reasons
}

// nfIdent names an NF instance for reason strings, shard-qualified when
// the server is sharded.
func nfIdent(nd NFDiag) string {
	if nd.Shard != "" {
		return fmt.Sprintf("%s (mid %s, shard %s)", nd.NF, nd.MID, nd.Shard)
	}
	return fmt.Sprintf("%s (mid %s)", nd.NF, nd.MID)
}

// The drop causes behind the per-NF rates: packets the backpressure
// policy shed at the NF's ring, and packets lost to the NF crashing.
var (
	shedCauses  = []flightrec.Cause{flightrec.CauseDropTail, flightrec.CauseShedPriority}
	faultCauses = []flightrec.Cause{flightrec.CausePanic, flightrec.CauseUnhealthyDrain, flightrec.CauseReloadDrain}
)

// dropsAt sums the terminal drop family nfp_drops_total{cause,nf,shard,
// gen} over causes, for the NF instance whose own series carry the
// labels of (nil = every NF). The family has no mid label, so graphs
// that share an NF name share its drop series.
func dropsAt(s telemetry.Snapshot, of map[string]string, causes []flightrec.Cause) uint64 {
	var sum uint64
	for _, c := range s.Counters {
		if c.Name != flightrec.MetricDrops {
			continue
		}
		if of != nil && (c.Labels["nf"] != of["nf"] || c.Labels["shard"] != of["shard"] || c.Labels["gen"] != of["gen"]) {
			continue
		}
		for _, cause := range causes {
			if c.Labels["cause"] == cause.String() {
				sum += c.Value
			}
		}
	}
	return sum
}

// counterAt finds a counter series by name and exact label set.
func counterAt(s telemetry.Snapshot, name string, labels map[string]string) uint64 {
	for _, c := range s.Counters {
		if c.Name == name && labelsEqual(c.Labels, labels) {
			return c.Value
		}
	}
	return 0
}

// gaugeAt finds a gauge series by name and exact label set.
func gaugeAt(s telemetry.Snapshot, name string, labels map[string]string) int64 {
	for _, g := range s.Gauges {
		if g.Name == name && labelsEqual(g.Labels, labels) {
			return g.Value
		}
	}
	return 0
}

// hasGauge reports whether the series exists at all (gaugeAt cannot
// distinguish absent from zero).
func hasGauge(s telemetry.Snapshot, name string, labels map[string]string) bool {
	for _, g := range s.Gauges {
		if g.Name == name && labelsEqual(g.Labels, labels) {
			return true
		}
	}
	return false
}

func labelsEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
