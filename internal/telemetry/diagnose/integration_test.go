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
	"nfp/internal/flow"
	"nfp/internal/graph"
	"nfp/internal/nf"
	"nfp/internal/nfa"
	"nfp/internal/telemetry"
	"nfp/internal/telemetry/diagnose"
	"nfp/internal/trafficgen"
)

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
	_, err = experiments.RunLiveGraphOpts(g, 600, gen, experiments.LiveOptions{
		Config:   dataplane.Config{Registry: reg, Telemetry: treg},
		OnServer: func(*dataplane.Server) { d.SampleNow() }, // open the window
	})
	if err != nil {
		t.Fatal(err)
	}
	d.SampleNow() // close the window on the run's final state

	// Read the verdict the way an operator would: over HTTP.
	srv := httptest.NewServer(telemetry.HandlerWith(treg, nil, d.Handlers()))
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
	_, err := experiments.RunLiveGraphOpts(graph.NF{Name: nfa.NFMonitor}, n, gen,
		experiments.LiveOptions{Config: dataplane.Config{
			FlowAccount:     sketch,
			TraceSampleRate: 1, // observe every packet: exact totals to verify against
		}})
	if err != nil {
		t.Fatal(err)
	}

	// Recount the truth by replaying the identical generator sequence.
	truth := map[flow.Key]uint64{}
	replay := trafficgen.New(trafficgen.Config{Flows: flows, Seed: seed, Zipf: 1.4})
	var heaviest flow.Key
	for i := 0; i < n; i++ {
		s := replay.Next()
		key := flow.Key{SrcIP: s.SrcIP, DstIP: s.DstIP, SrcPort: s.SrcPort, DstPort: s.DstPort, Proto: s.Proto}
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
