package dataplane

import (
	"fmt"
	"testing"
	"time"

	"nfp/internal/faultinject"
	"nfp/internal/graph"
	"nfp/internal/nf"
	"nfp/internal/nfa"
)

// TestBackpressureBlockParksNotSpins is the busy-wait regression test:
// a producer stuck behind a stalled downstream ring must transition
// from bounded yielding to parking (observable on the parks counter
// while still stuck) instead of pegging a core with unbounded
// Gosched retries — and stay lossless.
func TestBackpressureBlockParksNotSpins(t *testing.T) {
	const spinLimit = 16
	stallMon := faultinject.NewStallNF(nf.NewMonitor())
	s := New(Config{
		PoolSize: 256, RingSize: 8, Burst: 4, SpinLimit: spinLimit,
	})
	if err := s.AddGraphInstances(1, nfn(nfa.NFMonitor, 0), map[graph.NF]nf.NF{
		nfn(nfa.NFMonitor, 0): stallMon,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	col := collectOutputs(s)

	stallMon.Stall()
	// Overfill: ring (8) + the burst the runtime is stuck holding. The
	// injector goroutine must block inside ringPush, parked.
	const n = 24
	injDone := make(chan struct{})
	go func() {
		defer close(injDone)
		for i := 0; i < n; i++ {
			pkt := buildInto(t, s, spec(byte(i%3), uint16(5000+i%3), "bp"))
			if !s.Inject(pkt) {
				t.Error("classification failed")
				return
			}
		}
	}()

	parks := s.Telemetry().Counter("nfp_backpressure_parks_total")
	yields := s.Telemetry().Counter("nfp_backpressure_yields_total")
	for limit := time.Now().Add(2 * time.Second); parks.Value() < 3; {
		if time.Now().After(limit) {
			t.Fatalf("producer never parked: parks=%d yields=%d", parks.Value(), yields.Value())
		}
		time.Sleep(100 * time.Microsecond)
	}
	// Bounded spin: at most SpinLimit yields per push episode (one per
	// injected packet, plus the stuck one) — a busy-wait regression
	// would blow through this by orders of magnitude.
	if y := yields.Value(); y > uint64((n+1)*spinLimit) {
		t.Fatalf("yields = %d, want <= %d (spin must be bounded)", y, (n+1)*spinLimit)
	}

	stallMon.Release()
	<-injDone
	s.Stop()
	outs := uint64(col.wait())

	st := s.Stats()
	if st.Injected != n || st.Outputs != n || st.Drops != 0 {
		t.Fatalf("accounting: injected=%d outputs=%d drops=%d, want all %d out",
			st.Injected, st.Outputs, st.Drops, n)
	}
	if outs != n {
		t.Fatalf("collected %d outputs, want %d", outs, n)
	}
	if leak := s.Pool().InUse(); leak != 0 {
		t.Fatalf("pool leak: %d buffers", leak)
	}
}

// TestOverloadBehindSequentialJoins: on default-sized rings a graph of
// joins in sequence weighs enough that the admission budget covers fewer
// packets than one NF ring holds, so a stalled NF's ring cannot
// overflow; the injector parks at admission instead, and once the stall
// lifts every packet comes out.
func TestOverloadBehindSequentialJoins(t *testing.T) {
	for stages := 2; stages <= 3; stages++ {
		for _, at := range []int{0, stages - 1} {
			t.Run(fmt.Sprintf("stages=%d/stalled=%d", stages, at), func(t *testing.T) {
				stall := faultinject.NewStallNF(nf.NewMonitor())
				var g graph.Seq
				for i := 0; i < stages; i++ {
					g.Items = append(g.Items, copyStage(nfn(nfa.NFMonitor, i), nfn(nfa.NFLB, i)))
				}
				s := New(Config{SpinLimit: 8})
				if err := s.AddGraphInstances(1, g, map[graph.NF]nf.NF{nfn(nfa.NFMonitor, at): stall}); err != nil {
					t.Fatal(err)
				}
				if err := s.Start(); err != nil {
					t.Fatal(err)
				}
				col := collectOutputs(s)
				stall.Stall()

				const n = 2000
				injDone := make(chan struct{})
				go func() {
					defer close(injDone)
					for i := 0; i < n; i++ {
						if !s.Inject(buildInto(t, s, spec(byte(i%5), uint16(8000+i%64), "seqjoin"))) {
							t.Error("classification failed")
							return
						}
					}
				}()
				waitBackpressure(t, s, "admission")
				stall.Release()
				select {
				case <-injDone:
				case <-time.After(20 * time.Second):
					t.Fatalf("injector still held after the stall lifted: injected=%d sites=%v",
						s.Stats().Injected, backpressureSites(s))
				}
				s.Stop()
				outs := uint64(col.wait())

				st := s.Stats()
				if st.Injected != n || st.Outputs != n || st.Drops != 0 || outs != n {
					t.Errorf("accounting: injected=%d outputs=%d drops=%d collected=%d, want all %d out",
						st.Injected, st.Outputs, st.Drops, outs, n)
				}
				auditLedger(t, s, st.Drops)
				if leak := s.Pool().InUse(); leak != 0 {
					t.Fatalf("pool leak: %d buffers", leak)
				}
			})
		}
	}
}
