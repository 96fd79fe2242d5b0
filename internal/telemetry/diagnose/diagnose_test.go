package diagnose

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"testing"
	"time"

	"nfp/internal/flow"
	"nfp/internal/telemetry"
	"nfp/internal/telemetry/flightrec"
)

func fkey(i int) flow.Key {
	return flow.Key{
		SrcIP:   netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}),
		DstIP:   netip.AddrFrom4([4]byte{192, 168, 0, 1}),
		SrcPort: uint16(1000 + i), DstPort: 80, Proto: 6,
	}
}

func TestTopKExactBelowCapacity(t *testing.T) {
	tk := NewTopK(8)
	for i := 0; i < 4; i++ {
		for j := 0; j <= i; j++ {
			tk.ObserveFlow(fkey(i), 1, 100)
		}
	}
	rep := tk.Top(0)
	if len(rep.Flows) != 4 {
		t.Fatalf("want 4 flows, got %d", len(rep.Flows))
	}
	if rep.Flows[0].Pkts != 4 || rep.Flows[0].OverPkts != 0 {
		t.Fatalf("top flow: got pkts=%d over=%d, want exact 4/0", rep.Flows[0].Pkts, rep.Flows[0].OverPkts)
	}
	for i := 1; i < len(rep.Flows); i++ {
		if rep.Flows[i].Pkts > rep.Flows[i-1].Pkts {
			t.Fatalf("flows not sorted descending at %d", i)
		}
	}
	if rep.TotalPkts != 10 || rep.TotalBytes != 1000 {
		t.Fatalf("totals: got %d pkts %d bytes, want 10/1000", rep.TotalPkts, rep.TotalBytes)
	}
}

func TestTopKHeavyHitterSurvivesEviction(t *testing.T) {
	// One elephant among a stream of mice, sketch much smaller than the
	// flow population: the Space-Saving guarantee says any flow with
	// true count > N/k is retained, and estimates overcount by ≤ N/k.
	tk := NewTopK(16)
	rng := rand.New(rand.NewSource(1))
	elephant := fkey(9999)
	var total uint64
	for i := 0; i < 20000; i++ {
		if rng.Intn(4) == 0 {
			tk.ObserveFlow(elephant, 1, 64)
		} else {
			tk.ObserveFlow(fkey(rng.Intn(500)), 1, 64)
		}
		total++
	}
	rep := tk.Top(0)
	bound := total / uint64(tk.K())
	if rep.ErrorBound != bound {
		t.Fatalf("error bound: got %d want %d", rep.ErrorBound, bound)
	}
	var found *FlowCount
	for i := range rep.Flows {
		if rep.Flows[i].Key == elephant {
			found = &rep.Flows[i]
			break
		}
	}
	if found == nil {
		t.Fatalf("elephant (~25%% of %d packets) evicted from k=%d sketch", total, tk.K())
	}
	trueCount := uint64(0)
	// Recount deterministically with the same seed.
	rng = rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		if rng.Intn(4) == 0 {
			trueCount++
		} else {
			rng.Intn(500)
		}
	}
	if found.Pkts < trueCount {
		t.Fatalf("estimate %d below true count %d (Space-Saving never undercounts)", found.Pkts, trueCount)
	}
	if found.Pkts-trueCount > found.OverPkts {
		t.Fatalf("overcount %d exceeds per-entry bound %d", found.Pkts-trueCount, found.OverPkts)
	}
	if found.OverPkts > bound {
		t.Fatalf("per-entry bound %d exceeds global N/k=%d", found.OverPkts, bound)
	}
	if !found.Guaranteed {
		t.Fatalf("elephant lower bound %d should exceed error bound %d", found.Pkts-found.OverPkts, bound)
	}
}

func TestTopKScaledSamplesAndReset(t *testing.T) {
	tk := NewTopK(4)
	tk.ObserveFlow(fkey(1), 8, 8*1500) // sampled 1-in-8, pre-scaled
	rep := tk.Top(1)
	if rep.Flows[0].Pkts != 8 || rep.Flows[0].Bytes != 12000 {
		t.Fatalf("scaled observation lost: %+v", rep.Flows[0])
	}
	tk.Reset()
	rep = tk.Top(0)
	if len(rep.Flows) != 0 || rep.TotalPkts != 0 {
		t.Fatalf("reset left state behind: %+v", rep)
	}
}

// nfLabels builds the label set the dataplane attaches to per-NF
// metrics.
func nfLabels(nf, mid string) []telemetry.Label {
	return []telemetry.Label{telemetry.L("nf", nf), telemetry.L("mid", mid)}
}

// seedNF simulates one window of activity for an NF: pkts arrivals
// each with svcNS service time.
func seedNF(reg *telemetry.Registry, nf, mid string, pkts int, svcNS int64) {
	ls := nfLabels(nf, mid)
	reg.Counter(metricNFPacketsIn, ls...).Add(uint64(pkts))
	h := reg.Histogram(metricNFSvcTime, ls...)
	for i := 0; i < pkts; i++ {
		h.Record(svcNS)
	}
}

func TestReportUnknownUntilTwoSamples(t *testing.T) {
	reg := telemetry.NewRegistry()
	d := New(Config{Registry: reg})
	if got := d.Report().State; got != StateUnknown {
		t.Fatalf("empty diagnoser state = %q, want unknown", got)
	}
	d.sampleAt(time.Unix(100, 0))
	if got := d.Report().State; got != StateUnknown {
		t.Fatalf("one-sample state = %q, want unknown", got)
	}
	d.sampleAt(time.Unix(101, 0))
	if got := d.Report().State; got != StateOK {
		t.Fatalf("two-sample idle state = %q, want ok", got)
	}
}

func TestRhoRankingAndVerdict(t *testing.T) {
	reg := telemetry.NewRegistry()
	d := New(Config{Registry: reg, Window: 4})
	d.sampleAt(time.Unix(100, 0))

	// Over a 1-second window: fw sees 1000 pps at 100µs → ρ=0.1;
	// ids sees 1000 pps at 900µs → ρ=0.9 (the bottleneck).
	seedNF(reg, "fw", "1", 1000, 100_000)
	seedNF(reg, "ids", "1", 1000, 900_000)
	reg.Gauge(metricNFRingHW, nfLabels("ids", "1")...).SetMax(220)
	reg.Gauge(metricNFRingCap, nfLabels("ids", "1")...).Set(256)
	d.sampleAt(time.Unix(101, 0))

	rep := d.Report()
	if len(rep.Bottlenecks) != 2 {
		t.Fatalf("want 2 NFs, got %d", len(rep.Bottlenecks))
	}
	top := rep.Bottlenecks[0]
	if top.NF != "ids" {
		t.Fatalf("top bottleneck = %s, want ids", top.NF)
	}
	if top.Rho < 0.85 || top.Rho > 0.95 {
		t.Fatalf("ids ρ = %.3f, want ≈0.9", top.Rho)
	}
	if rep.Bottlenecks[1].Rho > 0.15 {
		t.Fatalf("fw ρ = %.3f, want ≈0.1", rep.Bottlenecks[1].Rho)
	}
	if !top.RingRising || top.RingFill < 0.85 {
		t.Fatalf("ids ring: fill=%.2f rising=%v, want ~0.86 rising", top.RingFill, top.RingRising)
	}
	if top.Verdict == "" {
		t.Fatalf("empty verdict")
	}
	if rep.State != StateDegraded {
		t.Fatalf("state = %q, want degraded (ρ=0.9 ≥ 0.8)", rep.State)
	}
	// Exported gauges reflect the diagnosis.
	snap := reg.Snapshot()
	if v := snap.GaugeValue(gaugeRhoMilli, nfLabels("ids", "1")...); v < 850 || v > 950 {
		t.Fatalf("exported ρ gauge = %d, want ≈900", v)
	}
	if v := snap.GaugeValue(gaugeHealthState); v != 2 {
		t.Fatalf("health state gauge = %d, want 2 (degraded)", v)
	}
}

func TestOverloadedOnShedsAndHighRho(t *testing.T) {
	reg := telemetry.NewRegistry()
	d := New(Config{Registry: reg, Window: 4})
	d.sampleAt(time.Unix(100, 0))
	seedNF(reg, "ids", "1", 1000, 990_000) // ρ≈0.99
	reg.Counter(flightrec.MetricDrops, telemetry.L("cause", "drop_tail"), telemetry.L("nf", "ids")).Add(50)
	d.sampleAt(time.Unix(101, 0))
	rep := d.Report()
	if rep.State != StateOverloaded {
		t.Fatalf("state = %q, want overloaded; reasons=%v", rep.State, rep.Reasons)
	}
	if len(rep.Reasons) < 2 {
		t.Fatalf("want both ρ and shed reasons, got %v", rep.Reasons)
	}
	if rep.Bottlenecks[0].ShedPPS != 50 {
		t.Fatalf("shed pps = %.0f, want 50", rep.Bottlenecks[0].ShedPPS)
	}
}

func TestDegradedOnUnhealthyAndPanics(t *testing.T) {
	reg := telemetry.NewRegistry()
	d := New(Config{Registry: reg, Window: 4})
	seedNF(reg, "nat", "2", 10, 1000)
	reg.Gauge(metricNFHealthy, nfLabels("nat", "2")...).Set(1)
	d.sampleAt(time.Unix(100, 0))
	seedNF(reg, "nat", "2", 10, 1000)
	reg.Gauge(metricNFHealthy, nfLabels("nat", "2")...).Set(0)
	reg.Counter(metricNFPanics, nfLabels("nat", "2")...).Inc()
	d.sampleAt(time.Unix(101, 0))
	rep := d.Report()
	if rep.State != StateDegraded {
		t.Fatalf("state = %q, want degraded; reasons=%v", rep.State, rep.Reasons)
	}
	if rep.Bottlenecks[0].Healthy {
		t.Fatalf("nat should report unhealthy")
	}
}

func TestSLOBurnEvaluation(t *testing.T) {
	reg := telemetry.NewRegistry()
	d := New(Config{Registry: reg, Window: 4, SLOTargetP99: time.Millisecond})
	h := reg.Histogram(metricE2ELatency, telemetry.L("mid", "1"))
	d.sampleAt(time.Unix(100, 0))
	// 5% of window samples breach a 1ms target → burn 5×.
	for i := 0; i < 950; i++ {
		h.Record(100_000)
	}
	for i := 0; i < 50; i++ {
		h.Record(5_000_000)
	}
	d.sampleAt(time.Unix(101, 0))
	rep := d.Report()
	if len(rep.SLO) != 1 {
		t.Fatalf("want 1 SLO row, got %d", len(rep.SLO))
	}
	slo := rep.SLO[0]
	if slo.MID != "1" || slo.WindowCount != 1000 {
		t.Fatalf("slo row: %+v", slo)
	}
	if slo.Violations != 50 {
		t.Fatalf("violations = %d, want 50", slo.Violations)
	}
	if slo.BurnRate < 4.9 || slo.BurnRate > 5.1 {
		t.Fatalf("burn = %.2f, want ≈5", slo.BurnRate)
	}
	if slo.Met {
		t.Fatalf("5× burn should not meet SLO")
	}
	if rep.State != StateDegraded {
		t.Fatalf("state = %q, want degraded", rep.State)
	}
	// Severe burn flips to overloaded: next window is all violations.
	for i := 0; i < 1000; i++ {
		h.Record(5_000_000)
	}
	d.sampleAt(time.Unix(102, 0))
	rep = d.Report()
	if rep.State != StateOverloaded {
		t.Fatalf("state = %q, want overloaded at 100×/ burn; reasons=%v", rep.State, rep.Reasons)
	}
	if v := reg.Snapshot().GaugeValue(gaugeSLOBurnMilli, telemetry.L("mid", "1")); v <= 0 {
		t.Fatalf("burn gauge not exported: %d", v)
	}
}

func TestRingBufferWindowSlides(t *testing.T) {
	reg := telemetry.NewRegistry()
	d := New(Config{Registry: reg, Window: 3})
	for i := 0; i < 10; i++ {
		seedNF(reg, "fw", "1", 100, 10_000)
		d.sampleAt(time.Unix(int64(100+i), 0))
	}
	rep := d.Report()
	if rep.Samples != 3 {
		t.Fatalf("retained samples = %d, want window of 3", rep.Samples)
	}
	if rep.WindowSeconds != 2 {
		t.Fatalf("window = %.0fs, want 2s (3 samples, 1s apart)", rep.WindowSeconds)
	}
	// 100 pkts per tick over a 2s window = 100 pps.
	if pps := rep.Bottlenecks[0].ArrivalPPS; pps != 100 {
		t.Fatalf("arrival = %.0f pps, want 100", pps)
	}
}

func TestStartStopBackgroundSampling(t *testing.T) {
	reg := telemetry.NewRegistry()
	d := New(Config{Registry: reg, Interval: 5 * time.Millisecond, Window: 8})
	d.Start()
	defer d.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for d.Report().State == StateUnknown {
		if time.Now().After(deadline) {
			t.Fatalf("background sampler never produced a judgeable window")
		}
		time.Sleep(5 * time.Millisecond)
	}
	d.Stop() // idempotent with the deferred Stop
}

func TestHTTPEndpoints(t *testing.T) {
	reg := telemetry.NewRegistry()
	tk := NewTopK(8)
	tk.ObserveFlow(fkey(1), 10, 1000)
	d := New(Config{Registry: reg, TopK: tk})
	seedNF(reg, "fw", "1", 100, 10_000)
	d.sampleAt(time.Unix(100, 0))
	seedNF(reg, "fw", "1", 100, 10_000)
	d.sampleAt(time.Unix(101, 0))

	srv := httptest.NewServer(telemetry.HandlerWith(reg, nil, d.Handlers()))
	defer srv.Close()

	var rep HealthReport
	getJSON(t, srv.URL+"/debug/health", &rep)
	if rep.State != StateOK {
		t.Fatalf("/debug/health state = %q, want ok", rep.State)
	}
	if len(rep.Bottlenecks) != 1 || rep.Bottlenecks[0].NF != "fw" {
		t.Fatalf("/debug/health bottlenecks: %+v", rep.Bottlenecks)
	}

	var flows TopFlowsReport
	getJSON(t, srv.URL+"/debug/topflows?n=5", &flows)
	if len(flows.Flows) != 1 || flows.Flows[0].Pkts != 10 {
		t.Fatalf("/debug/topflows: %+v", flows)
	}
	if flows.Flows[0].Src == "" || flows.Flows[0].Dst == "" {
		t.Fatalf("flow endpoints not serialized: %+v", flows.Flows[0])
	}
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
}

func TestClassifierCacheDiag(t *testing.T) {
	reg := telemetry.NewRegistry()
	d := New(Config{Registry: reg})
	d.sampleAt(time.Unix(100, 0))
	d.sampleAt(time.Unix(101, 0))
	if rep := d.Report(); rep.Classifier != nil {
		t.Fatalf("classifier-less report has classifier section: %+v", rep.Classifier)
	}

	// Flow cache disabled: no cache series, but the rule-table gauges
	// still surface.
	reg.Gauge(metricClassRules).Set(7)
	reg.Gauge(metricClassTuples).Set(3)
	d.sampleAt(time.Unix(102, 0))
	if cd := d.Report().Classifier; cd == nil || cd.Rules != 7 || cd.Tuples != 3 || cd.CacheHitRate != 0 {
		t.Fatalf("cache-disabled classifier section = %+v, want rules 7, tuples 3, no cache rates", cd)
	}

	reg.Counter(metricCacheHits).Add(900)
	reg.Counter(metricCacheMisses).Add(100)
	reg.Counter(metricCacheEvicts).Add(10)
	d2 := New(Config{Registry: reg})
	d2.sampleAt(time.Unix(200, 0))
	reg.Counter(metricCacheHits).Add(900)
	reg.Counter(metricCacheMisses).Add(100)
	reg.Counter(metricCacheEvicts).Add(10)
	reg.Gauge(metricClassRules).Set(1025)
	reg.Gauge(metricClassTuples).Set(2)
	d2.sampleAt(time.Unix(202, 0))
	cd := d2.Report().Classifier
	if cd == nil {
		t.Fatal("cache-enabled report missing classifier section")
	}
	if cd.CacheHitPPS != 450 || cd.CacheMissPPS != 50 || cd.CacheEvictPPS != 5 {
		t.Fatalf("rates = %.1f/%.1f/%.1f, want 450/50/5",
			cd.CacheHitPPS, cd.CacheMissPPS, cd.CacheEvictPPS)
	}
	if cd.CacheHitRate != 0.9 {
		t.Fatalf("hit rate = %v, want 0.9", cd.CacheHitRate)
	}
	if cd.Rules != 1025 || cd.Tuples != 2 {
		t.Fatalf("rules/tuples = %d/%d, want 1025/2", cd.Rules, cd.Tuples)
	}
}
