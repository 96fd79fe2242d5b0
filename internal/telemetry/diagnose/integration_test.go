package diagnose_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"nfp/internal/dataplane"
	"nfp/internal/experiments"
	"nfp/internal/faultinject"
	"nfp/internal/graph"
	"nfp/internal/nf"
	"nfp/internal/nfa"
	"nfp/internal/packet"
	"nfp/internal/telemetry"
	"nfp/internal/telemetry/diagnose"
	"nfp/internal/trafficgen"
)

// startServer starts a 1024-buffer server with g installed as MID 1,
// the way nfpd does before it hands the server to the traffic driver.
func startServer(t *testing.T, cfg dataplane.Config, g graph.Node) *dataplane.Server {
	t.Helper()
	cfg.PoolSize = 1024
	srv := dataplane.New(cfg)
	if err := srv.AddGraph(1, g); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestStalledNFRanksTopBottleneck is the end-to-end bottleneck-ranking
// acceptance test: one NF of a live chain gets its service time
// inflated through the fault injector, and /debug/health must rank it
// the top bottleneck with ρ above every other NF.
func TestStalledNFRanksTopBottleneck(t *testing.T) {
	inner, err := nf.NewIDS(nf.DefaultSignatureCount, true)
	if err != nil {
		t.Fatal(err)
	}
	stall := faultinject.NewStallNF(inner)
	stall.SetDelay(300 * time.Microsecond)

	reg := nf.NewRegistry()
	reg.MustRegister(nfa.NFIDS, func() (nf.NF, error) { return stall, nil })

	g := graph.Seq{Items: []graph.Node{
		graph.NF{Name: nfa.NFIDS},
		graph.NF{Name: nfa.NFMonitor},
		graph.NF{Name: nfa.NFLB},
	}}
	treg := telemetry.NewRegistry()
	d := diagnose.New(diagnose.Config{Registry: treg})
	gen := trafficgen.New(trafficgen.Config{Flows: 16, Seed: 3})
	dp := startServer(t, dataplane.Config{Registry: reg, Telemetry: treg}, g)
	d.SampleNow() // open the window
	if _, err := experiments.RunTraffic(dp, dp.InjectBatch, 600, 1, gen, nil); err != nil {
		t.Fatal(err)
	}
	d.SampleNow() // close the window on the run's final state

	// Read the verdict the way an operator would: over HTTP.
	srv := httptest.NewServer(telemetry.Handler(treg, nil, d.Handlers()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep diagnose.HealthReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}

	if len(rep.Bottlenecks) < 3 {
		t.Fatalf("expected 3 ranked NFs, got %d", len(rep.Bottlenecks))
	}
	top := rep.Bottlenecks[0]
	if top.NF != nfa.NFIDS {
		t.Fatalf("top bottleneck = %s (ρ=%.3f), want %s\nreport: %+v",
			top.NF, top.Rho, nfa.NFIDS, rep.Bottlenecks)
	}
	// The 300µs stall dominates: the stalled NF's utilization must be
	// both high in absolute terms and clearly above every other NF's.
	if top.Rho < 0.5 {
		t.Fatalf("stalled NF ρ = %.3f, want > 0.5", top.Rho)
	}
	for _, b := range rep.Bottlenecks[1:] {
		if b.Rho >= top.Rho {
			t.Fatalf("%s ρ=%.3f not below stalled %s ρ=%.3f", b.NF, b.Rho, top.NF, top.Rho)
		}
		if b.Rho > top.Rho/5 {
			t.Fatalf("%s ρ=%.3f too close to stalled NF's %.3f — ranking not discriminating", b.NF, b.Rho, top.Rho)
		}
	}
	if top.MeanServiceNS < 300e3 {
		t.Fatalf("stalled NF mean service = %.0fns, want >= 300µs", top.MeanServiceNS)
	}
}

// TestReloadRhoGaugeFollowsLiveRow reloads a chain three times before
// its traffic: a reloaded graph continues its series, so /debug/health
// has one row per NF and the exported nfp_nf_rho_milli is the live row's
// ρ, not a drained generation's.
func TestReloadRhoGaugeFollowsLiveRow(t *testing.T) {
	stall := faultinject.NewStallNF(nf.NewMonitor())
	stall.SetDelay(200 * time.Microsecond)
	reg := nf.NewRegistry()
	reg.MustRegister(nfa.NFMonitor, func() (nf.NF, error) { return stall, nil })
	g := graph.Seq{Items: []graph.Node{graph.NF{Name: nfa.NFMonitor}, graph.NF{Name: nfa.NFLB}}}

	treg := telemetry.NewRegistry()
	d := diagnose.New(diagnose.Config{Registry: treg})
	srv := startServer(t, dataplane.Config{Registry: reg, Telemetry: treg}, g)
	for i := 0; i < 3; i++ {
		if err := srv.Reload(1, g); err != nil {
			t.Fatal(err)
		}
	}
	d.SampleNow()
	gen := trafficgen.New(trafficgen.Config{Flows: 16, Seed: 3})
	if _, err := experiments.RunTraffic(srv, srv.InjectBatch, 300, 1, gen, nil); err != nil {
		t.Fatal(err)
	}
	d.SampleNow()

	rep := d.Report()
	top := rep.Bottlenecks[0]
	if top.NF != nfa.NFMonitor || top.Rho < 0.1 {
		t.Fatalf("top row %s ρ=%.3f, want the stalled monitor", top.NF, top.Rho)
	}
	got := treg.Snapshot().GaugeValue("nfp_nf_rho_milli", telemetry.L("nf", top.NF), telemetry.L("mid", top.MID))
	if want := int64(top.Rho * 1000); got != want {
		t.Fatalf("nfp_nf_rho_milli{nf=%s} = %d, live row reads %d", top.NF, got, want)
	}
	if len(rep.Bottlenecks) != 2 {
		t.Fatalf("%d rows after 3 reloads, want one per NF: %+v", len(rep.Bottlenecks), rep.Bottlenecks)
	}
}

// TestShardedRhoGaugesPerShard stalls one shard's instance of an NF: each
// shard's row is exported under its own shard label, so the loaded
// shard's gauge is not overwritten by the idle one's.
func TestShardedRhoGaugesPerShard(t *testing.T) {
	stall := faultinject.NewStallNF(nf.NewMonitor())
	stall.SetDelay(200 * time.Microsecond)
	treg := telemetry.NewRegistry()
	d := diagnose.New(diagnose.Config{Registry: treg, SLOTargetP99: time.Millisecond})
	s := dataplane.New(dataplane.Config{Shards: 2, Telemetry: treg, TraceSampleRate: 1})
	g := graph.Seq{Items: []graph.Node{graph.NF{Name: nfa.NFMonitor}, graph.NF{Name: nfa.NFLB}}}
	err := s.AddGraphProvide(1, g, func(shard int, node graph.NF) nf.NF {
		if shard == 0 && node.Name == nfa.NFMonitor {
			return stall
		}
		return nil // the server's registry builds the rest
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		for p := range s.Output() {
			p.Free()
		}
	}()
	d.SampleNow()
	var perShard [2]int
	gen := trafficgen.New(trafficgen.Config{Flows: 64, Seed: 5})
	for i := 0; i < 400; i++ {
		p := s.Pool().Get()
		if p == nil {
			t.Fatal("pool exhausted")
		}
		packet.BuildInto(p, gen.Next())
		perShard[s.ShardOf(p)]++
		if !s.Inject(p) {
			t.Fatal("classification failed")
		}
	}
	s.Stop()
	d.SampleNow()
	if perShard[0] == 0 || perShard[1] == 0 {
		t.Fatalf("traffic reached shards %v, want both", perShard)
	}

	rep := d.Report()
	if len(rep.Bottlenecks) != 4 || len(rep.SLO) != 2 {
		t.Fatalf("%d NF rows and %d SLO rows, want one per NF and shard: %+v %+v",
			len(rep.Bottlenecks), len(rep.SLO), rep.Bottlenecks, rep.SLO)
	}
	if top := rep.Bottlenecks[0]; top.NF != nfa.NFMonitor || top.Shard != "0" || top.Rho < 0.1 {
		t.Fatalf("top row %s shard %s ρ=%.3f, want shard 0's stalled monitor", top.NF, top.Shard, top.Rho)
	}
	snap := treg.Snapshot()
	for _, row := range rep.Bottlenecks {
		got := snap.GaugeValue("nfp_nf_rho_milli",
			telemetry.L("nf", row.NF), telemetry.L("mid", row.MID), telemetry.L("shard", row.Shard))
		if want := int64(row.Rho * 1000); got != want {
			t.Errorf("nfp_nf_rho_milli{nf=%s,shard=%s} = %d, its row reads %d", row.NF, row.Shard, got, want)
		}
	}
	for _, slo := range rep.SLO {
		got := snap.GaugeValue("nfp_slo_burn_milli", telemetry.L("mid", slo.MID), telemetry.L("shard", slo.Shard))
		if want := int64(slo.BurnRate * 1000); got != want {
			t.Errorf("nfp_slo_burn_milli{shard=%s} = %d, its row reads %d", slo.Shard, got, want)
		}
	}
}

// TestZipfElephantsInTopKWithinBounds is the end-to-end heavy-hitter
// acceptance test: a Zipf-skewed flow mix runs through the live
// classifier into the sketch, and every guaranteed flow's estimate must
// bracket the independently recounted truth within the sketch's error
// bound, with the true heaviest flow identified as rank 0.
func TestZipfElephantsInTopKWithinBounds(t *testing.T) {
	const (
		n     = 4000
		flows = 32
		seed  = 5
		k     = 16
	)
	sketch := diagnose.NewTopK(k)
	gen := trafficgen.New(trafficgen.Config{Flows: flows, Seed: seed, Zipf: 1.4})
	srv := startServer(t, dataplane.Config{
		FlowAccount:     sketch,
		TraceSampleRate: 1, // observe every packet: exact totals to verify against
	}, graph.NF{Name: nfa.NFMonitor})
	if _, err := experiments.RunTraffic(srv, srv.InjectBatch, n, 1, gen, nil); err != nil {
		t.Fatal(err)
	}

	// Recount the truth by replaying the identical generator sequence.
	truth := map[packet.FlowKey]uint64{}
	replay := trafficgen.New(trafficgen.Config{Flows: flows, Seed: seed, Zipf: 1.4})
	var heaviest packet.FlowKey
	for i := 0; i < n; i++ {
		s := replay.Next()
		key := packet.FlowKey{Src: s.SrcIP.As4(), Dst: s.DstIP.As4(), SrcPort: s.SrcPort, DstPort: s.DstPort, Proto: s.Proto}
		truth[key]++
		if truth[key] > truth[heaviest] {
			heaviest = key
		}
	}

	rep := sketch.Top(0)
	if rep.TotalPkts != n {
		t.Fatalf("sketch saw %d pkts, want %d", rep.TotalPkts, n)
	}
	if rep.ErrorBound != n/k {
		t.Fatalf("error bound = %d, want N/k = %d", rep.ErrorBound, n/k)
	}
	if len(rep.Flows) == 0 {
		t.Fatal("empty sketch")
	}
	if rep.Flows[0].Key != heaviest {
		t.Fatalf("rank-0 flow %s->%s, want the true heaviest (%d pkts)",
			rep.Flows[0].Src, rep.Flows[0].Dst, truth[heaviest])
	}
	guaranteed := 0
	for _, f := range rep.Flows {
		want := truth[f.Key]
		if f.Pkts < want {
			t.Fatalf("flow %s->%s undercounted: %d < true %d", f.Src, f.Dst, f.Pkts, want)
		}
		if f.Pkts > want+rep.ErrorBound {
			t.Fatalf("flow %s->%s overcounted beyond N/k: %d > %d+%d", f.Src, f.Dst, f.Pkts, want, rep.ErrorBound)
		}
		if f.Guaranteed {
			guaranteed++
			if want <= uint64(n/k) {
				t.Fatalf("flow %s->%s marked guaranteed but true count %d <= N/k %d", f.Src, f.Dst, want, n/k)
			}
		}
	}
	// A Zipf(1.4) mix over 32 flows has several flows above the 1/k
	// frequency threshold — the sketch must certify at least the top 2.
	if guaranteed < 2 {
		t.Fatalf("only %d guaranteed heavy hitters, want >= 2", guaranteed)
	}
}
