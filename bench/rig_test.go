package main

import (
	"testing"

	"nfp/internal/nf"
	"nfp/internal/nfa"
	"nfp/internal/packet"
)

// scalarOnly hides every optional capability of the NF it wraps.
type scalarOnly struct{ nf.NF }

// The traced run is only comparable to the untraced one if wrapping an
// NF does not change which path the runtime drives it through.
func TestTimingWrapperKeepsBatchPath(t *testing.T) {
	clocks := newNFClocks()
	reg := nf.NewRegistry()
	for _, name := range timedNFs {
		inst, err := reg.New(name)
		if err != nil {
			t.Fatal(err)
		}
		_, innerBatches := inst.(nf.BatchProcessor)
		wrapped := clocks.wrap(inst)
		if _, ok := wrapped.(nf.BatchProcessor); ok != innerBatches {
			t.Errorf("%s: wrapped NF batches = %v, wrapped-around NF batches = %v", name, ok, innerBatches)
		}
		if wrapped.Name() != name {
			t.Errorf("%s: wrapper reports name %q", name, wrapped.Name())
		}
	}

	fw, err := reg.New(nfa.NFFirewall)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := clocks.wrap(scalarOnly{fw}).(nf.BatchProcessor); ok {
		t.Error("wrapper offers a batch path the wrapped NF does not have")
	}
}

func TestTimingWrapperCounts(t *testing.T) {
	clocks := newNFClocks()
	mon := clocks.wrap(nf.NewMonitor())
	pkts := []*packet.Packet{testPacket(1, "a"), testPacket(2, "b"), testPacket(3, "c")}
	verdicts := make([]nf.Verdict, len(pkts))
	nf.ProcessAll(mon, pkts, verdicts)
	mon.Process(pkts[0])
	clk := clocks[nfa.NFMonitor]
	if got := clk.pkts.Load(); got != 4 {
		t.Errorf("clock counted %d packets, want 4", got)
	}
	if clk.busyNS.Load() <= 0 || clocks.busyNS() != clk.busyNS.Load() {
		t.Errorf("busy time %d ns (total %d)", clk.busyNS.Load(), clocks.busyNS())
	}
	if got := clocks.wrap(nf.NewSynthetic(1)); got.Name() != nfa.NFSynthetic {
		t.Errorf("untimed NF type came back as %q", got.Name())
	}
}

// One short pass through every phase on every workload: packets are
// conserved, nothing is dropped, the phases report what they should.
func TestRigPhases(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		if w.flows > 100000 && testing.Short() {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			g, st, err := newRig(w, newTraffic(w, 1), benchConfig(), false, nil)
			if err != nil {
				t.Fatal(err)
			}
			if st.addGraph <= 0 {
				t.Error("set-up times not recorded")
			}
			g.warmUp()
			if g.sent != uint64(w.flows) {
				t.Errorf("warm-up sent %d packets, want %d", g.sent, w.flows)
			}
			g.startReloader(w.reloadEvery)
			rates := g.throughput(1)
			if len(rates) != 1 || rates[0] <= 0 {
				t.Errorf("one throughput window gave rates %v", rates)
			}
			before := g.sent
			g.col.samples = make([]uint32, 0, 1<<18)
			lat := g.latency(2)
			g.stopReloader()
			total, smallest := lat.count()
			if n := g.sent - before; uint64(total)+g.col.unkept != n {
				t.Errorf("latency phase sent %d packets but took %d samples", n, uint64(total)+g.col.unkept)
			}
			if len(lat) == 0 || len(lat) > 2 || smallest == 0 {
				t.Errorf("latency phase gave %d slices, the smallest with %d samples", len(lat), smallest)
			}
			if lat.best(50) <= 0 || lat.best(99) < lat.best(50) {
				t.Errorf("p50 = %v, p99 = %v", lat.best(50), lat.best(99))
			}
			if (g.sent-before)%burstLen != 0 {
				t.Errorf("latency phase sent %d packets, not whole bursts", g.sent-before)
			}
			if w.reloadEvery > 0 && g.reloadErrs > 0 {
				t.Errorf("%d reloads failed", g.reloadErrs)
			}
			if f := g.stop(); f.total() != 0 {
				t.Errorf("conservation broken: %+v", f)
			}
		})
	}
}

func TestCheckAgreesWithSequentialReference(t *testing.T) {
	for _, name := range []string{"fig13_dcmix", "fwd64_reconfig"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		chk, err := check(w, newTraffic(w, 2), w.flows+2000)
		if err != nil {
			t.Fatal(err)
		}
		if chk.failed() != 0 {
			t.Errorf("%s: %+v", name, chk)
		}
	}
}

// The check must be able to fail: a reference fed different traffic
// does not match.
func TestCheckDetectsDifferentOutput(t *testing.T) {
	w, _ := workloadByName("fwd64")
	a, _, _, err := replay(w, newTraffic(w, 1), 500, benchConfig(), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _, _, err := replay(w, newTraffic(w, 2), 500, referenceConfig(), true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.diff(b) == 0 {
		t.Error("digests of different traffic agree")
	}
}
