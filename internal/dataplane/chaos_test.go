package dataplane

import (
	"sync"
	"testing"
	"time"

	"nfp/internal/faultinject"
	"nfp/internal/graph"
	"nfp/internal/nf"
	"nfp/internal/nfa"
	"nfp/internal/telemetry"
	"nfp/internal/telemetry/flightrec"
)

// chaosCollector drains a server's output channel from a goroutine and
// hands back the packet count after Stop.
type chaosCollector struct {
	mu   sync.Mutex
	n    int
	done chan struct{}
}

func collectOutputs(s *Server) *chaosCollector {
	c := &chaosCollector{done: make(chan struct{})}
	go func() {
		defer close(c.done)
		for p := range s.Output() {
			c.mu.Lock()
			c.n++
			c.mu.Unlock()
			p.Free()
		}
	}()
	return c
}

func (c *chaosCollector) wait() int {
	<-c.done
	return c.n
}

// nodesOf returns the segment runtimes of a MID (test-side
// introspection). With fusion off every segment is one NF.
func nodesOf(s *Server, mid uint32) []*nodeRT {
	pr := (*s.shards[0].plans.Load())[mid]
	if pr == nil {
		return nil
	}
	return pr.rts
}

// waitHealthy polls until the supervisor has made restarts restarts —
// one per scheduled panic — and every node of the MID is healthy again,
// or the deadline passes. Health alone is not recovery: PanicNF counts
// a panic before it raises it, so a node still reads healthy between
// that count and the runtime's recover, and a wave released then runs
// into a segment about to go down.
func waitHealthy(t *testing.T, s *Server, mid uint32, restarts uint64, deadline time.Duration) {
	t.Helper()
	limit := time.Now().Add(deadline)
	for {
		got := s.Stats().Restarts
		ok := got >= restarts
		for _, n := range nodesOf(s, mid) {
			if !n.healthy.Load() {
				ok = false
			}
		}
		if ok {
			return
		}
		if time.Now().After(limit) {
			t.Fatalf("nodes did not recover within the deadline (restarts %d of %d)", got, restarts)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestChaosNFPanic is the crash-isolation suite: an NF panics on a
// deterministic schedule mid-run, and the server must (1) survive, (2)
// lose at most the packets of the panicked burst plus the unhealthy
// window — all accounted as drops, none leaked — and (3) recover: after
// the supervisor restart, a second traffic wave flows end-to-end.
func TestChaosNFPanic(t *testing.T) {
	cases := []struct {
		name  string
		burst int
		graph graph.Node
	}{
		{
			name:  "seq-chain-burst32",
			burst: 32,
			graph: graph.Seq{Items: []graph.Node{nfn(nfa.NFMonitor, 0), nfn(nfa.NFL3Fwd, 0)}},
		},
		{
			name:  "seq-chain-scalar",
			burst: 1,
			graph: graph.Seq{Items: []graph.Node{nfn(nfa.NFMonitor, 0), nfn(nfa.NFL3Fwd, 0)}},
		},
		{
			name:  "shared-parallel-burst32",
			burst: 32,
			graph: graph.Par{Branches: []graph.Node{nfn(nfa.NFMonitor, 0), nfn(nfa.NFL3Fwd, 0)}},
		},
	}
	const wave = 200
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Panic on the 10th packet the monitor sees: mid-burst on the
			// burst-32 path, mid-stream on the scalar path.
			panicMon := faultinject.NewPanicNF(nf.NewMonitor(), 10)
			fwd, _ := nf.NewL3Forwarder(100)
			insts := map[graph.NF]nf.NF{
				nfn(nfa.NFMonitor, 0): panicMon,
				nfn(nfa.NFL3Fwd, 0):   fwd,
			}
			s := New(Config{PoolSize: 256, Burst: tc.burst})
			if err := s.AddGraphInstances(1, tc.graph, insts); err != nil {
				t.Fatal(err)
			}
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			col := collectOutputs(s)

			inject := func(n int) {
				for i := 0; i < n; i++ {
					pkt := buildInto(t, s, spec(byte(i%7), uint16(1000+i%7), "chaos"))
					if !s.Inject(pkt) {
						t.Fatal("classification failed")
					}
				}
			}
			inject(wave)
			// The runtime drains asynchronously; 200 packets are far past
			// call 10, so the scheduled panic must fire once they land.
			for limit := time.Now().Add(2 * time.Second); panicMon.Panicked() == 0; {
				if time.Now().After(limit) {
					t.Fatalf("panicked = %d, want 1", panicMon.Panicked())
				}
				time.Sleep(100 * time.Microsecond)
			}
			// The server is still alive: wait for the supervisor to swap
			// in a fresh instance, then prove recovery with a second wave.
			waitHealthy(t, s, 1, 1, 2*time.Second)
			inject(wave)
			s.Stop()
			outs := uint64(col.wait())

			st := s.Stats()
			if st.Injected != 2*wave {
				t.Fatalf("injected = %d, want %d", st.Injected, 2*wave)
			}
			if outs != st.Outputs {
				t.Fatalf("collected %d outputs, counter says %d", outs, st.Outputs)
			}
			if st.Outputs+st.Drops != st.Injected {
				t.Fatalf("conservation broken: injected=%d outputs=%d drops=%d",
					st.Injected, st.Outputs, st.Drops)
			}
			if st.Panics != 1 || st.Restarts < 1 {
				t.Fatalf("panics=%d restarts=%d, want 1 and >=1", st.Panics, st.Restarts)
			}
			// The second wave ran against a healthy instance: at least a
			// full wave of packets made it end-to-end.
			if st.Outputs < wave {
				t.Fatalf("outputs = %d, want >= %d (recovery wave must flow)", st.Outputs, wave)
			}
			// The drop window is bounded to the crash wave: the panicked
			// burst plus the unhealthy drain, never the recovery wave.
			if st.Drops > wave {
				t.Fatalf("drops = %d, want <= %d (crash must not eat the recovery wave)", st.Drops, wave)
			}
			if leak := s.Pool().InUse(); leak != 0 {
				t.Fatalf("pool leak: %d buffers", leak)
			}
			for _, n := range nodesOf(s, 1) {
				for i := range n.nfs {
					sn := &n.nfs[i]
					if in, out, drops := sn.pktsIn.Value(), sn.pktsOut.Value(), sn.drops.Value(); in != out+drops {
						t.Errorf("node %s conservation broken: in=%d out=%d drops=%d",
							sn.plan.NF, in, out, drops)
					}
				}
			}
		})
	}
}

// TestChaosRingStallBlocks wedges the only NF so its 8-slot receive
// ring fills: the injector must park on the full ring — a backpressure
// event naming the monitor — and lose nothing, and releasing the stall
// must bring every packet out.
func TestChaosRingStallBlocks(t *testing.T) {
	stallMon := faultinject.NewStallNF(nf.NewMonitor())
	s := New(Config{PoolSize: 512, RingSize: 8, Burst: 32})
	mon := nfn(nfa.NFMonitor, 0)
	if err := s.AddGraphInstances(1, mon, map[graph.NF]nf.NF{mon: stallMon}); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	col := collectOutputs(s)

	stallMon.Stall()
	const flood = 300
	injDone := make(chan struct{})
	go func() {
		defer close(injDone)
		for i := 0; i < flood; i++ {
			if !s.Inject(buildInto(t, s, spec(byte(i%5), uint16(2000+i%5), "flood"))) {
				t.Error("classification failed")
				return
			}
		}
	}()
	waitBackpressure(t, s, mon.String())
	if st := s.Stats(); st.Drops != 0 {
		t.Fatalf("a full ring dropped %d packets", st.Drops)
	}
	select {
	case <-injDone:
		t.Fatal("injector finished while the only NF was stalled")
	default:
	}

	stallMon.Release()
	<-injDone
	s.Stop()
	outs := uint64(col.wait())

	st := s.Stats()
	if st.Injected != flood || st.Outputs != flood || st.Drops != 0 || outs != flood {
		t.Fatalf("accounting: injected=%d outputs=%d drops=%d collected=%d, want all %d out",
			st.Injected, st.Outputs, st.Drops, outs, flood)
	}
	auditLedger(t, s, st.Drops)
	if leak := s.Pool().InUse(); leak != 0 {
		t.Fatalf("pool leak: %d buffers", leak)
	}
}

// TestChaosPoolExhaustion starves the server's buffer pool two ways —
// a greedy co-tenant holding every buffer, then a scheduled allocation
// failure — and checks the source-side contract: allocation fails
// cleanly (no panic, failure counters tick), and traffic resumes with
// exact accounting once buffers return.
func TestChaosPoolExhaustion(t *testing.T) {
	mon := nf.NewMonitor()
	s := New(Config{PoolSize: 64, Burst: 32})
	if err := s.AddGraphInstances(1, nfn(nfa.NFMonitor, 0), map[graph.NF]nf.NF{
		nfn(nfa.NFMonitor, 0): mon,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	col := collectOutputs(s)

	// A hog drains the pool: Get must return nil, not block or panic.
	hog := faultinject.NewPoolHog(s.Pool())
	grabbed := hog.Grab(s.Pool().Cap())
	if grabbed == 0 {
		t.Fatal("hog grabbed nothing")
	}
	if s.Pool().Get() != nil {
		t.Fatal("Get succeeded on an exhausted pool")
	}
	failsAfterHog := s.Pool().Stats().Failures
	if failsAfterHog == 0 {
		t.Fatal("exhaustion did not count an alloc failure")
	}
	hog.ReleaseAll()

	// A scheduled fault fails one mid-run allocation batch; the
	// retrying source rides through it.
	sched := faultinject.NewAllocSchedule(20)
	s.Pool().SetFaultHook(sched.Hook)
	const n = 100
	for i := 0; i < n; i++ {
		pkt := buildInto(t, s, spec(byte(i%3), uint16(4000+i%3), "squeeze"))
		if !s.Inject(pkt) {
			t.Fatal("classification failed")
		}
	}
	s.Pool().SetFaultHook(nil)
	s.Stop()
	outs := uint64(col.wait())

	if sched.Failed() != 1 {
		t.Errorf("scheduled alloc failures = %d, want 1", sched.Failed())
	}
	st := s.Stats()
	if st.Injected != n || st.Outputs+st.Drops != n {
		t.Fatalf("accounting: injected=%d outputs=%d drops=%d, want %d injected and conservation",
			st.Injected, st.Outputs, st.Drops, n)
	}
	if outs != st.Outputs {
		t.Fatalf("collected %d outputs, counter says %d", outs, st.Outputs)
	}
	if mon.Total().Packets != n {
		t.Errorf("monitor saw %d packets, want %d", mon.Total().Packets, n)
	}
	if leak := s.Pool().InUse(); leak != 0 {
		t.Fatalf("pool leak: %d buffers", leak)
	}
}

// TestChaosSpanConservation checks the span model survives NF crash
// recovery: with rate-1 tracing through a panic + supervisor restart,
// every retained span still has a sane interval, and every packet's
// trace — including the ones dropped by the crash window — decomposes
// with exact bucket-sum equality.
func TestChaosSpanConservation(t *testing.T) {
	panicMon := faultinject.NewPanicNF(nf.NewMonitor(), 10)
	fwd, _ := nf.NewL3Forwarder(100)
	g := graph.Seq{Items: []graph.Node{nfn(nfa.NFMonitor, 0), nfn(nfa.NFL3Fwd, 0)}}
	s := New(Config{PoolSize: 256, Burst: 32, TraceSampleRate: 1, TraceCapacity: 1 << 16})
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
	inject := func(n int) {
		for i := 0; i < n; i++ {
			pkt := buildInto(t, s, spec(byte(i%7), uint16(7000+i%7), "span-chaos"))
			if !s.Inject(pkt) {
				t.Fatal("classification failed")
			}
		}
	}
	inject(wave)
	for limit := time.Now().Add(2 * time.Second); panicMon.Panicked() == 0; {
		if time.Now().After(limit) {
			t.Fatalf("panicked = %d, want 1", panicMon.Panicked())
		}
		time.Sleep(100 * time.Microsecond)
	}
	waitHealthy(t, s, 1, 1, 2*time.Second)
	inject(wave)
	s.Stop()
	col.wait()

	st := s.Stats()
	if st.Panics != 1 {
		t.Fatalf("panics = %d, want 1", st.Panics)
	}

	// Interval sanity on the raw ring: no span may end before it began,
	// crash recovery included.
	events := s.Tracer().Events()
	for _, ev := range events {
		if ev.Begin > ev.TS {
			t.Fatalf("span with negative duration: %+v", ev)
		}
	}

	// Span conservation: every injected packet's trace is retained
	// (64Ki ring, rate 1) and decomposes exactly — outputs and crash
	// drops alike end in a terminal span with buckets tiling e2e.
	groups, truncated := s.Tracer().GroupByPID()
	if truncated != 0 {
		t.Fatalf("ring evicted %d traces despite 64Ki capacity", truncated)
	}
	if uint64(len(groups)) != st.Injected {
		t.Fatalf("decomposable traces = %d, want %d (one per injected packet)", len(groups), st.Injected)
	}
	var terminalDrops uint64
	for pid, spans := range groups {
		at, ok := telemetry.Decompose(spans)
		if !ok {
			t.Fatalf("pid %d: trace did not decompose across crash recovery: %d spans", pid, len(spans))
		}
		sum := at.Classify + at.RingWait + at.Service + at.MergeWait + at.Merge + at.Output
		if sum != at.E2E {
			t.Errorf("pid %d: buckets sum %d != e2e %d: %+v", pid, sum, at.E2E, at)
		}
		if spans[len(spans)-1].Stage == telemetry.StageDrop {
			terminalDrops++
		}
	}
	if terminalDrops != st.Drops {
		t.Errorf("drop-terminated traces = %d, drop counter = %d", terminalDrops, st.Drops)
	}
}

// TestChaosFusedSegmentPanic is the fused-engine crash case: the
// MIDDLE NF of a 3-NF fused chain panics mid-burst. The whole segment
// is the crash boundary — the panicked burst drops through the middle
// NF's drop route, arrivals drain while the segment is unhealthy, the
// supervisor swaps a fresh instance into exactly the panicked slot,
// and a recovery wave then flows end-to-end with zero pool leaks and
// exact conservation.
func TestChaosFusedSegmentPanic(t *testing.T) {
	fwdA, _ := nf.NewL3Forwarder(100)
	fwdB, _ := nf.NewL3Forwarder(100)
	panicMon := faultinject.NewPanicNF(nf.NewMonitor(), 10)
	g := graph.Seq{Items: []graph.Node{
		nfn(nfa.NFL3Fwd, 0), nfn(nfa.NFMonitor, 0), nfn(nfa.NFL3Fwd, 1),
	}}
	s := New(Config{PoolSize: 256, Burst: 32})
	if err := s.AddGraphInstances(1, g, map[graph.NF]nf.NF{
		nfn(nfa.NFL3Fwd, 0):   fwdA,
		nfn(nfa.NFMonitor, 0): panicMon,
		nfn(nfa.NFL3Fwd, 1):   fwdB,
	}); err != nil {
		t.Fatal(err)
	}
	rts := nodesOf(s, 1)
	if len(rts) != 1 || len(rts[0].nfs) != 3 {
		t.Fatalf("chain did not fuse into one 3-NF segment: %d runtimes", len(rts))
	}
	seg := rts[0]
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	col := collectOutputs(s)

	const wave = 200
	inject := func(n int) {
		for i := 0; i < n; i++ {
			pkt := buildInto(t, s, spec(byte(i%7), uint16(2000+i%7), "fused-chaos"))
			if !s.Inject(pkt) {
				t.Fatal("classification failed")
			}
		}
	}
	inject(wave)
	for limit := time.Now().Add(2 * time.Second); panicMon.Panicked() == 0; {
		if time.Now().After(limit) {
			t.Fatalf("panicked = %d, want 1", panicMon.Panicked())
		}
		time.Sleep(100 * time.Microsecond)
	}
	waitHealthy(t, s, 1, 1, 2*time.Second)
	inject(wave)
	s.Stop()
	outs := uint64(col.wait())

	st := s.Stats()
	if st.Panics != 1 || st.Restarts < 1 {
		t.Fatalf("panics=%d restarts=%d, want 1 and >=1 (supervisor must restart the segment)", st.Panics, st.Restarts)
	}
	if st.Injected != 2*wave || st.Outputs+st.Drops != st.Injected {
		t.Fatalf("conservation broken: injected=%d outputs=%d drops=%d",
			st.Injected, st.Outputs, st.Drops)
	}
	if outs != st.Outputs {
		t.Fatalf("collected %d outputs, counter says %d", outs, st.Outputs)
	}
	if st.Outputs < wave {
		t.Fatalf("outputs = %d, want >= %d (recovery wave must flow through the restarted segment)", st.Outputs, wave)
	}
	if st.Drops > wave {
		t.Fatalf("drops = %d, want <= %d (crash must not eat the recovery wave)", st.Drops, wave)
	}
	if leak := s.Pool().InUse(); leak != 0 {
		t.Fatalf("pool leak: %d buffers", leak)
	}
	// The panic is attributed to the middle slot, and only that slot's
	// instance was replaced; per-NF conservation holds slot by slot.
	if got := seg.nfs[1].panics.Value(); got != 1 {
		t.Errorf("middle slot panics = %d, want 1", got)
	}
	if got := dropsAt(s, seg.nfs[1].plan.NF.String(), flightrec.CausePanic); got == 0 {
		t.Error("middle slot recorded no panic drops")
	}
	if got := seg.nfs[1].restarts.Value(); got < 1 {
		t.Errorf("middle slot restarts = %d, want >= 1", got)
	}
	for i := range seg.nfs {
		sn := &seg.nfs[i]
		if in, out, drops := sn.pktsIn.Value(), sn.pktsOut.Value(), sn.drops.Value(); in != out+drops {
			t.Errorf("slot %d (%s) conservation broken: in=%d out=%d drops=%d",
				i, sn.plan.NF, in, out, drops)
		}
		if i != 1 {
			if got := sn.restarts.Value(); got != 0 {
				t.Errorf("slot %d (%s) restarts = %d, want 0 (only the panicked slot is replaced)",
					i, sn.plan.NF, got)
			}
		}
	}
	inst, ok := s.NodeRuntime(1, nfn(nfa.NFMonitor, 0))
	if !ok {
		t.Fatal("middle NF runtime lookup failed")
	}
	if inst == nf.NF(panicMon) {
		t.Error("middle slot still runs the panicked instance after restart")
	}
}
