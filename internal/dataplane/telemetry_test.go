package dataplane

import (
	"testing"

	"nfp/internal/core"
	"nfp/internal/flowtab"
	"nfp/internal/graph"
	"nfp/internal/nf"
	"nfp/internal/nfa"
	"nfp/internal/packet"
	"nfp/internal/policy"
	"nfp/internal/telemetry"
)

// TestTelemetryCountersBalance runs a real sequential+parallel graph
// and checks the registry tells one consistent story: injected packets
// equal outputs plus drops, every NF's in/out balances, the classifier
// accounted each injection, and the mempool returned to zero in-use.
func TestTelemetryCountersBalance(t *testing.T) {
	pol := policy.FromChain(nfa.NFIDS, nfa.NFMonitor, nfa.NFLB)
	res, err := core.Compile(pol, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mon := nf.NewMonitor()
	lb, _ := nf.NewLoadBalancer(nf.DefaultBackendCount)
	ids, _ := nf.NewIDS(10, true)

	// runTraffic retains every output until the run ends, so the pool
	// must hold all n packets plus in-flight copies above its reserve.
	// Burst 1 pins the scalar path: it asserts per-packet cardinality
	// (one histogram sample per packet), which bursts amortize away —
	// see TestTelemetryBalanceUnderBurst for the batched counterpart.
	const n = 200
	s := New(Config{PoolSize: 256, TraceSampleRate: 4, TraceCapacity: 8192, Burst: 1})
	if err := s.AddGraphInstances(1, res.Graph, map[graph.NF]nf.NF{
		nfn(nfa.NFMonitor, 0): mon,
		nfn(nfa.NFLB, 0):      lb,
		nfn(nfa.NFIDS, 0):     ids,
	}); err != nil {
		t.Fatal(err)
	}
	outs := runTraffic(t, s, n, func(i int) packet.BuildSpec {
		return spec(byte(i%8), uint16(3000+i%8), "telemetry")
	})
	for _, p := range outs {
		p.Free()
	}

	snap := s.Telemetry().Snapshot()

	injected := snap.CounterValue("nfp_injected_total")
	outputs := snap.CounterValue("nfp_outputs_total")
	drops := snap.CounterValue("nfp_drops_total")
	if injected != n {
		t.Errorf("injected = %d, want %d", injected, n)
	}
	if injected != outputs+drops {
		t.Errorf("injected %d != outputs %d + drops %d", injected, outputs, drops)
	}
	if uint64(len(outs)) != outputs {
		t.Errorf("channel outputs %d != counter %d", len(outs), outputs)
	}

	// Classifier accounting covers every injection, and the per-MID
	// dispatch counter agrees.
	matches := snap.CounterValue("nfp_classifier_rule_matches_total") +
		snap.CounterValue("nfp_classifier_default_hits_total")
	if matches != n {
		t.Errorf("classifier matched %d, want %d", matches, n)
	}
	if d := snap.SumCounters("nfp_classifier_dispatch_total"); d != n {
		t.Errorf("dispatch sum = %d, want %d", d, n)
	}

	// Per-NF flow conservation: each NF saw every packet once and
	// passed all of them (no dropping NFs in this graph).
	for _, name := range []string{"ids", "monitor", "lb"} {
		in := snap.CounterValue("nfp_nf_packets_in_total", telemetry.L("nf", name), telemetry.L("mid", "1"))
		out := snap.CounterValue("nfp_nf_packets_out_total", telemetry.L("nf", name), telemetry.L("mid", "1"))
		if in != n || out != n {
			t.Errorf("nf %s in/out = %d/%d, want %d/%d", name, in, out, n, n)
		}
	}

	// Every NF's service time was recorded once per packet.
	for _, h := range snap.Histograms {
		if h.Name == "nfp_nf_service_time_ns" && h.Count != n {
			t.Errorf("service-time histogram %v count = %d, want %d", h.Labels, h.Count, n)
		}
	}

	// Mergers processed every branch version and joined each packet.
	if p := snap.SumCounters("nfp_merger_processed_total"); p == 0 {
		t.Error("mergers processed nothing — parallel stage not exercised")
	}

	// Mempool balance: everything allocated was freed, nothing in use.
	allocs := snap.CounterValue("nfp_mempool_allocs_total")
	frees := snap.CounterValue("nfp_mempool_frees_total")
	if allocs == 0 || allocs != frees {
		t.Errorf("mempool allocs/frees = %d/%d", allocs, frees)
	}
	if inUse := snap.GaugeValue("nfp_mempool_in_use"); inUse != 0 {
		t.Errorf("mempool in_use = %d after run", inUse)
	}
	if s.Pool().InUse() != 0 {
		t.Errorf("Pool().InUse() = %d after run", s.Pool().InUse())
	}

	// Stats() still reports through the registry-backed counters.
	st := s.Stats()
	if st.Injected != injected || st.Outputs != outputs || st.Drops != drops {
		t.Errorf("Stats() %+v disagrees with registry (%d/%d/%d)", st, injected, outputs, drops)
	}
}

// TestTelemetryTraceHopOrder checks that a sampled packet's trace is a
// hop-ordered path: classify first, then each NF of the chain in
// sequence order, then merge (parallel stage) and output last.
func TestTelemetryTraceHopOrder(t *testing.T) {
	pol := policy.FromChain(nfa.NFIDS, nfa.NFMonitor, nfa.NFLB)
	res, err := core.Compile(pol, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mon := nf.NewMonitor()
	lb, _ := nf.NewLoadBalancer(nf.DefaultBackendCount)
	ids, _ := nf.NewIDS(10, true)

	s := New(Config{PoolSize: 128, TraceSampleRate: 1, TraceCapacity: 1 << 14})
	if err := s.AddGraphInstances(1, res.Graph, map[graph.NF]nf.NF{
		nfn(nfa.NFMonitor, 0): mon,
		nfn(nfa.NFLB, 0):      lb,
		nfn(nfa.NFIDS, 0):     ids,
	}); err != nil {
		t.Fatal(err)
	}
	outs := runTraffic(t, s, 50, func(i int) packet.BuildSpec {
		return spec(byte(i%4), uint16(4000+i%4), "trace")
	})
	for _, p := range outs {
		p.Free()
	}

	traces, _ := s.Tracer().GroupByPID()
	if len(traces) == 0 {
		t.Fatal("rate-1 tracer captured no complete traces")
	}
	for pid, hops := range traces {
		if hops[0].Stage != telemetry.StageClassify {
			t.Errorf("pid %d does not start at classify: %v", pid, hops[0].Stage)
		}
		last := hops[len(hops)-1].Stage
		if last != telemetry.StageOutput && last != telemetry.StageDrop {
			t.Errorf("pid %d does not end at output/drop: %v", pid, last)
		}
		// Stage ordering: classify strictly precedes all NF hops,
		// which precede merge, which precedes output. The span model
		// interleaves ring-wait/merge-wait/copy spans between these
		// milestones, so the rank check covers the milestone stages
		// only.
		rank := map[telemetry.Stage]int{
			telemetry.StageClassify: 0,
			telemetry.StageNF:       1,
			telemetry.StageMerge:    2,
			telemetry.StageOutput:   3,
			telemetry.StageDrop:     3,
		}
		prev := -1
		for i, h := range hops {
			r, milestone := rank[h.Stage]
			if !milestone {
				continue
			}
			if r < prev {
				t.Errorf("pid %d hop %d out of order: %v (rank %d after %d)", pid, i, h.Stage, r, prev)
			}
			prev = r
		}
		// The sequential prefix ids → monitor → lb shows up in NF-hop
		// name order for this compiled graph.
		var nfNames []string
		for _, h := range hops {
			if h.Stage == telemetry.StageNF {
				nfNames = append(nfNames, h.Name)
			}
		}
		if len(nfNames) != 3 || nfNames[0] != "ids" {
			t.Errorf("pid %d NF hops = %v", pid, nfNames)
		}
	}
}

// TestStateSeriesPolledAtScrape: every table-backed NF — and only those
// — gets the three nfp_nf_state_* series, a scrape reads them off the
// live instance, and scraping twice counts nothing twice.
func TestStateSeriesPolledAtScrape(t *testing.T) {
	res, err := core.Compile(policy.FromChain(nfa.NFFirewall, nfa.NFMonitor, nfa.NFNAT), nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{PoolSize: 256})
	if err := s.AddGraph(1, res.Graph); err != nil {
		t.Fatal(err)
	}
	const flows = 8
	for _, p := range runTraffic(t, s, 200, func(i int) packet.BuildSpec {
		return spec(byte(i%flows), uint16(3000+i%flows), "state")
	}) {
		p.Free()
	}
	for scrape := 0; scrape < 2; scrape++ {
		snap := s.Telemetry().Snapshot()
		for _, name := range []string{nfa.NFMonitor, nfa.NFNAT} {
			labels := []telemetry.Label{telemetry.L("nf", name), telemetry.L("mid", "1")}
			if got := snap.GaugeValue("nfp_nf_state_entries", labels...); got != flows {
				t.Errorf("scrape %d: %s state entries = %d, want %d", scrape, name, got, flows)
			}
			if ev, rf := snap.CounterValue("nfp_nf_state_evictions_total", labels...), snap.CounterValue("nfp_nf_state_refusals_total", labels...); ev != 0 || rf != 0 {
				t.Errorf("scrape %d: %s evictions %d, refusals %d under the ceiling", scrape, name, ev, rf)
			}
		}
		for _, g := range snap.Gauges {
			if g.Name == "nfp_nf_state_entries" && g.Labels["nf"] == nfa.NFFirewall {
				t.Error("the firewall keeps no flow table, yet reports one")
			}
		}
		if findings := telemetry.LintNames(snap); len(findings) != 0 {
			t.Errorf("metric names: %v", findings)
		}
	}

	// The counters follow the instance: up by what it reports, and from
	// zero again for the fresh instance a restart puts in its place.
	reg := telemetry.NewRegistry()
	var slot segNF
	m := &stateMetrics{
		sn:        &slot,
		entries:   reg.Gauge("nfp_nf_state_entries"),
		evictions: reg.Counter("nfp_nf_state_evictions_total"),
		refusals:  reg.Counter("nfp_nf_state_refusals_total"),
	}
	for _, st := range []flowtab.Stats{{Entries: 5, Evictions: 10, Refusals: 1}, {Entries: 5, Evictions: 10, Refusals: 4}, {Entries: 1, Evictions: 2}} {
		slot.instP.Store(&instBox{nf: statsOf(st)})
		m.poll()
	}
	if m.entries.Value() != 1 || m.evictions.Value() != 12 || m.refusals.Value() != 4 {
		t.Errorf("after 10, 10 and a restarted 2 evictions: entries %d, evictions %d, refusals %d",
			m.entries.Value(), m.evictions.Value(), m.refusals.Value())
	}
}

// statsOf is an NF that reports the state stats it is.
type statsOf flowtab.Stats

func (s statsOf) StateStats() flowtab.Stats         { return flowtab.Stats(s) }
func (s statsOf) Name() string                      { return "stats" }
func (s statsOf) Profile() nfa.Profile              { return nfa.Profile{} }
func (s statsOf) Process(*packet.Packet) nf.Verdict { return nf.Pass }
