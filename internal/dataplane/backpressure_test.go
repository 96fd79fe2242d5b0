package dataplane

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"nfp/internal/faultinject"
	"nfp/internal/graph"
	"nfp/internal/nf"
	"nfp/internal/nfa"
)

// spinBudget mirrors the ring package's: the yields a waiter spends
// before it parks.
const spinBudget = 256

// goroutines returns the goroutine profile's entries — a header line
// naming the goroutine's state, then its stack — whose stack contains
// every one of needles.
func goroutines(needles ...string) []string {
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 2); err != nil {
		panic(err)
	}
	var out []string
next:
	for _, g := range strings.Split(buf.String(), "\n\n") {
		for _, n := range needles {
			if !strings.Contains(g, n) {
				continue next
			}
		}
		out = append(out, g)
	}
	return out
}

// blockedOnCond reports whether every goroutine in gs is blocked in the
// ring's wait primitive: parked on a channel, not asleep on a clock.
func blockedOnCond(gs []string) bool {
	for _, g := range gs {
		if !strings.Contains(g, "[chan receive") || !strings.Contains(g, "ring.(*Cond).Park") {
			return false
		}
	}
	return len(gs) > 0
}

// TestBackpressureBlockParksNotSpins is the busy-wait regression test:
// a producer stuck behind a stalled downstream ring must transition
// from bounded yielding to parking — observable on the parks counter,
// and as a goroutine blocked until the ring moves, while still stuck —
// instead of pegging a core with unbounded Gosched retries or waking on
// a clock; and stay lossless.
func TestBackpressureBlockParksNotSpins(t *testing.T) {
	stallMon := faultinject.NewStallNF(nf.NewMonitor())
	s := New(Config{PoolSize: 256, RingSize: 8, Burst: 4})
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
	for limit := time.Now().Add(2 * time.Second); parks.Value() < 1; {
		if time.Now().After(limit) {
			t.Fatalf("producer never parked: parks=%d yields=%d", parks.Value(), yields.Value())
		}
		time.Sleep(100 * time.Microsecond)
	}
	// Parked means blocked until the ring moves: the injector sits in a
	// channel receive, not in time.Sleep.
	injector := "TestBackpressureBlockParksNotSpins.func1"
	for limit := time.Now().Add(2 * time.Second); !blockedOnCond(goroutines(injector, "(*shard).push")); {
		if time.Now().After(limit) {
			t.Fatalf("parked injector is not blocked on the ring:\n%s", strings.Join(goroutines(injector), "\n\n"))
		}
		time.Sleep(100 * time.Microsecond)
	}
	// Bounded spin: at most the spin budget of yields per push episode
	// (one per injected packet, plus the stuck one) — a busy-wait
	// regression would blow through this by orders of magnitude.
	if y := yields.Value(); y > uint64((n+1)*spinBudget) {
		t.Fatalf("yields = %d, want <= %d (spin must be bounded)", y, (n+1)*spinBudget)
	}
	// A park lasts until the ring moves: however long the stall, the
	// parked injector neither wakes nor counts another park.
	p := parks.Value()
	time.Sleep(10 * time.Millisecond)
	if got := parks.Value(); got != p || !blockedOnCond(goroutines(injector, "(*shard).push")) {
		t.Errorf("parks %d -> %d over 10 ms of stall: a parked producer woke with nothing moved", p, got)
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
				s := New(Config{})
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

// TestIdleServerBlocksUntilTraffic: an idle consumer gives its core back
// by blocking until its ring moves, not by sleeping on a clock — so a
// started server left idle has every runtime goroutine blocked on its
// ring, and the next packet injected wakes them and comes out. A join
// has no goroutine to idle: the two branch runtimes of a parallel stage
// are the server's only consumers.
func TestIdleServerBlocksUntilTraffic(t *testing.T) {
	s := New(Config{})
	g := graph.Par{Branches: []graph.Node{nfn(nfa.NFMonitor, 0), nfn(nfa.NFMonitor, 1)}}
	if err := s.AddGraph(1, g); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	// This server's consumers, told apart from any other test's by the
	// runtime each one runs (drain's receiver).
	sh := s.shards[0]
	var rings []string
	for _, pr := range *sh.plans.Load() {
		for _, rt := range pr.rts {
			rings = append(rings, fmt.Sprintf("(*nodeRT).drain(%p", rt))
		}
	}
	if len(rings) != 2 {
		t.Fatalf("%d consumers, want the two branch runtimes", len(rings))
	}
	for _, ring := range rings {
		for limit := time.Now().Add(5 * time.Second); !blockedOnCond(goroutines(ring)); {
			if time.Now().After(limit) {
				t.Fatalf("idle consumer of %s is not blocked on its ring:\n%s", ring, strings.Join(goroutines(ring), "\n\n"))
			}
			time.Sleep(time.Millisecond)
		}
	}

	if !s.Inject(buildInto(t, s, spec(1, 5000, "idle"))) {
		t.Fatal("classification failed")
	}
	select {
	case p := <-s.Output():
		p.Free()
	case <-time.After(5 * time.Second):
		t.Fatal("a packet injected into an idle server never came out")
	}
	s.Stop()
	if st := s.Stats(); st.Injected != 1 || st.Outputs != 1 {
		t.Fatalf("accounting: injected=%d outputs=%d, want 1 and 1", st.Injected, st.Outputs)
	}
}
