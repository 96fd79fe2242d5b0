package dataplane

import (
	"testing"
	"time"

	"nfp/internal/core"
	"nfp/internal/faultinject"
	"nfp/internal/graph"
	"nfp/internal/nf"
	"nfp/internal/nfa"
	"nfp/internal/policy"
	"nfp/internal/telemetry"
	"nfp/internal/telemetry/diagnose"
	"nfp/internal/telemetry/flightrec"
)

// dropsAt totals the drop family's series charged to one NF, over the
// given causes.
func dropsAt(s *Server, nf string, causes ...flightrec.Cause) uint64 {
	var n uint64
	for _, ctr := range s.Telemetry().Snapshot().Counters {
		if ctr.Name != flightrec.MetricDrops || ctr.Labels["nf"] != nf {
			continue
		}
		for _, c := range causes {
			if ctr.Labels["cause"] == c.String() {
				n += ctr.Value
			}
		}
	}
	return n
}

// causeSum totals the cause-labeled nfp_drops_total family for one
// cause across nf/shard/gen series.
func causeSum(snap telemetry.Snapshot, c flightrec.Cause) uint64 {
	var n uint64
	for _, ctr := range snap.Counters {
		if ctr.Name == flightrec.MetricDrops && ctr.Labels["cause"] == c.String() {
			n += ctr.Value
		}
	}
	return n
}

// auditLedger runs the conservation audit against a server's registry
// and pins the structural invariants every test shares: the unknown
// sentinel and the reserved stop_drain cause never fire, and the
// per-cause sum equals the unlabeled drop total.
func auditLedger(t *testing.T, s *Server, wantDrops uint64) flightrec.Ledger {
	t.Helper()
	snap := s.Telemetry().Snapshot()
	l := flightrec.ReadLedger(snap)
	if err := l.Verify(); err != nil {
		t.Fatalf("ledger audit: %v", err)
	}
	if l.TotalDrops != wantDrops {
		t.Fatalf("ledger total drops = %d, want %d (Stats().Drops)", l.TotalDrops, wantDrops)
	}
	if n := causeSum(snap, flightrec.CauseUnknown); n != 0 {
		t.Fatalf("unknown-cause tripwire fired: %d drops with no provenance", n)
	}
	if n := causeSum(snap, flightrec.CauseStopDrain); n != 0 {
		t.Fatalf("stop_drain = %d, want 0 (Stop waits for conservation)", n)
	}
	return l
}

// TestDropProvenanceVerdict: an NF returning VerdictDrop is the
// simplest drop site — every packet a default-deny firewall kills must
// land on cause=nf_verdict, and only there.
func TestDropProvenanceVerdict(t *testing.T) {
	fw := nf.NewFirewallFromRules(nil, nf.Deny)
	s := New(Config{PoolSize: 128, Burst: 8})
	if err := s.AddGraphInstances(1, nfn(nfa.NFFirewall, 0), map[graph.NF]nf.NF{
		nfn(nfa.NFFirewall, 0): fw,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	col := collectOutputs(s)
	const n = 100
	for i := 0; i < n; i++ {
		if !s.Inject(buildInto(t, s, spec(byte(i%5), uint16(4000+i), "deny"))) {
			t.Fatal("classification failed")
		}
	}
	s.Stop()
	if got := col.wait(); got != 0 {
		t.Fatalf("default-deny firewall let %d packets out", got)
	}
	st := s.Stats()
	if st.Drops != n {
		t.Fatalf("drops = %d, want %d", st.Drops, n)
	}
	snap := s.Telemetry().Snapshot()
	if got := causeSum(snap, flightrec.CauseNFVerdict); got != n {
		t.Fatalf("cause=nf_verdict = %d, want %d", got, n)
	}
	auditLedger(t, s, st.Drops)
	// The series carries the origin NF's name.
	found := false
	for _, c := range snap.Counters {
		if c.Name == flightrec.MetricDrops && c.Labels["cause"] == "nf_verdict" && c.Value > 0 {
			if c.Labels["nf"] == "" {
				t.Fatalf("nf_verdict series missing nf label: %v", c.Labels)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no live nf_verdict series found")
	}
	if leak := s.Pool().InUse(); leak != 0 {
		t.Fatalf("pool leak: %d buffers", leak)
	}
}

// TestDropProvenancePanic mirrors the chaos suite with the audit
// closed: every drop an NF panic causes must be attributed to panic
// (the in-flight burst) or unhealthy_drain (the supervisor window),
// the NF's own drop counter must reconcile exactly with the cause
// family, and the event ring must show the lifecycle.
func TestDropProvenancePanic(t *testing.T) {
	panicMon := faultinject.NewPanicNF(nf.NewMonitor(), 10)
	fwd, _ := nf.NewL3Forwarder(100)
	g := graph.Seq{Items: []graph.Node{nfn(nfa.NFMonitor, 0), nfn(nfa.NFL3Fwd, 0)}}
	s := New(Config{PoolSize: 256, Burst: 32})
	if err := s.AddGraphInstances(1, g, map[graph.NF]nf.NF{
		nfn(nfa.NFMonitor, 0): panicMon,
		nfn(nfa.NFL3Fwd, 0):   fwd,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	col := collectOutputs(s)
	const wave = 200
	for i := 0; i < wave; i++ {
		if !s.Inject(buildInto(t, s, spec(byte(i%7), uint16(3000+i%13), "chaos"))) {
			t.Fatal("classification failed")
		}
	}
	waitHealthy(t, s, 1, 1, 5*time.Second)
	for i := 0; i < wave; i++ {
		if !s.Inject(buildInto(t, s, spec(byte(i%7), uint16(3000+i%13), "chaos2"))) {
			t.Fatal("classification failed")
		}
	}
	s.Stop()
	col.wait()

	st := s.Stats()
	if st.Injected != st.Outputs+st.Drops {
		t.Fatalf("conservation: injected=%d outputs=%d drops=%d", st.Injected, st.Outputs, st.Drops)
	}
	snap := s.Telemetry().Snapshot()
	panics := causeSum(snap, flightrec.CausePanic)
	if panics == 0 {
		t.Fatal("injected panic produced no cause=panic drops")
	}
	auditLedger(t, s, st.Drops)

	// The per-NF conservation counter reconciles with the cause family:
	// on this join-free chain every drop is a panicked burst or a drain,
	// all charged to the monitor.
	drain := causeSum(snap, flightrec.CauseUnhealthyDrain) + causeSum(snap, flightrec.CauseReloadDrain)
	if nfDrops := snap.SumCounters("nfp_nf_drops_total"); nfDrops != panics+drain || nfDrops != st.Drops {
		t.Fatalf("nfp_nf_drops_total = %d, cause=panic %d + drains %d, total drops %d (must reconcile)",
			nfDrops, panics, drain, st.Drops)
	}

	// The ring saw the lifecycle: install, the panic, the restart, the
	// stop — and sampled drop events carry panic provenance.
	kinds := map[string]bool{}
	sawPanicDrop := false
	for _, e := range s.FlightRecorder().Events(0) {
		kinds[e.Kind] = true
		if e.Kind == "drop" && e.Cause == "panic" && e.Count > 0 {
			sawPanicDrop = true
		}
	}
	for _, want := range []string{"install", "panic", "restart", "stop"} {
		if !kinds[want] {
			t.Fatalf("event ring missing %q (saw %v)", want, kinds)
		}
	}
	if !sawPanicDrop {
		t.Fatal("no drop event with cause=panic (every drop is recorded)")
	}
	if leak := s.Pool().InUse(); leak != 0 {
		t.Fatalf("pool leak: %d buffers", leak)
	}
}

// TestMetricLintClean loads every metric family the dataplane and the
// diagnosis layer register — sharded server, a join, drops of several
// causes, health gauges — and lints the full registry: one misnamed
// series anywhere fails here instead of shipping.
func TestMetricLintClean(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := New(Config{Shards: 2, PoolSize: 256, Burst: 8, Telemetry: reg, TraceSampleRate: 4})
	g := graph.Seq{Items: []graph.Node{
		graph.Par{Branches: []graph.Node{nfn(nfa.NFMonitor, 0), nfn(nfa.NFMonitor, 1)}},
		nfn(nfa.NFL3Fwd, 0),
	}}
	if err := s.AddGraph(1, g); err != nil {
		t.Fatal(err)
	}
	s.Classifier().Clear()
	s.Classifier().AddRule(Match{DstPort: 80}, 1)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	col := collectOutputs(s)
	for i := 0; i < 60; i++ {
		sp := shardSpec(i%10, i/10)
		if i%3 == 0 {
			sp.DstPort = 81 // no rule: rejected, stays ours
		}
		if p := buildInto(t, s, sp); !s.Inject(p) {
			p.Free()
		}
	}
	s.Stop()
	col.wait()

	d := diagnose.New(diagnose.Config{Registry: reg})
	d.SampleNow()
	d.SampleNow()

	// The compile's stage verdicts nfpd exports beside the dataplane's
	// series: one chain kept sequential, two Priority stages kept.
	for mid, pol := range map[uint32]policy.Policy{
		1: policy.FromChain(nfa.NFFirewall, nfa.NFMonitor, nfa.NFLB),
		2: {Rules: []policy.Rule{policy.Priority(nfa.NFLB, nfa.NFL3Fwd), policy.Priority(nfa.NFFirewall, nfa.NFMonitor)}},
	} {
		res, err := core.Compile(pol, nil, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		core.ExportStages(reg, mid, res.Stages)
	}

	snap := reg.Snapshot()
	// The flow-cache counters register eagerly with the cache, so the
	// lint always exercises them; prove they are actually in the snap.
	for _, name := range []string{
		"nfp_classifier_cache_hits_total",
		"nfp_classifier_cache_misses_total",
		"nfp_classifier_cache_evictions_total",
	} {
		found := false
		for _, c := range snap.Counters {
			if c.Name == name {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("flow-cache series %s missing from the lint snapshot", name)
		}
	}
	// So do the rule-table gauges, with the classifier's counters, each
	// join's table high-water mark, with the join, and the stage
	// verdicts.
	for _, name := range []string{"nfp_classifier_rules", "nfp_classifier_tuples", "nfp_merger_at_high_water", "nfp_plan_stage_parallel"} {
		found := false
		for _, g := range snap.Gauges {
			found = found || g.Name == name
		}
		if !found {
			t.Errorf("gauge %s missing from the lint snapshot", name)
		}
	}
	if findings := telemetry.LintNames(snap); len(findings) != 0 {
		for _, f := range findings {
			t.Error(f)
		}
		t.Fatalf("%d metric lint findings on a fully-loaded registry", len(findings))
	}
}
