package dataplane

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nfp/internal/faultinject"
	"nfp/internal/graph"
	"nfp/internal/nf"
	"nfp/internal/nfa"
	"nfp/internal/packet"
	"nfp/internal/telemetry"
	"nfp/internal/telemetry/diagnose"
)

// countNF wraps an NF and counts its Process calls — the per-generation
// observability probe: a drained generation's instances must never see
// another packet.
type countNF struct {
	inner nf.NF
	n     atomic.Uint64
}

func (c *countNF) Name() string                        { return c.inner.Name() }
func (c *countNF) Process(p *packet.Packet) nf.Verdict { c.n.Add(1); return c.inner.Process(p) }
func (c *countNF) processedTotal() uint64              { return c.n.Load() }
func newCountNF(t *testing.T, name string) *countNF    { return &countNF{inner: mustNF(t, name)} }
func mustNF(t *testing.T, name string) nf.NF {
	t.Helper()
	inst, err := nf.NewRegistry().New(name)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// runtimesOf snapshots every shard's live runtime of a MID.
func runtimesOf(s *Server, mid uint32) []*planRuntime {
	var prs []*planRuntime
	for _, sh := range s.shards {
		prs = append(prs, (*sh.plans.Load())[mid])
	}
	return prs
}

// reloadGraph is the suite's standard shape: a parallelizable pair, so
// both generations exercise copies, mergers and the accumulating
// table — the structures the generation-carry fix protects.
func reloadGraph() graph.Node {
	return graph.Par{Branches: []graph.Node{nfn(nfa.NFMonitor, 0), nfn(nfa.NFL3Fwd, 0)}}
}

// TestReloadGenerationsAndDrainCompleteness is the property test:
// generation numbers are strictly monotonic across reloads, the
// compile hash is stable for an unchanged policy, and after Reload
// returns the drained generation is complete — its runtimes are
// retired with zero in-flight packets, and none of its NF instances
// ever observes another packet while new traffic flows on the
// successor.
func TestReloadGenerationsAndDrainCompleteness(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			var mu sync.Mutex
			byGen := map[uint64][]*countNF{} // instances created per config generation
			gen := uint64(1)
			provide := func(shard int, node graph.NF) nf.NF {
				c := newCountNF(t, node.Name)
				mu.Lock()
				byGen[gen] = append(byGen[gen], c)
				mu.Unlock()
				return c
			}

			s := New(Config{PoolSize: 512, Burst: 8, Shards: shards})
			if err := s.AddGraphProvide(1, reloadGraph(), provide); err != nil {
				t.Fatal(err)
			}
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			col := collectOutputs(s)

			inject := func(n int) {
				for i := 0; i < n; i++ {
					pkt := buildInto(t, s, spec(byte(i%11), uint16(1000+i%13), "reload"))
					if !s.Inject(pkt) {
						pkt.Free()
						t.Fatal("classification failed")
					}
				}
			}

			const wave = 300
			inject(wave)
			if got := s.Generation(); got != 1 {
				t.Fatalf("generation = %d before any reload, want 1", got)
			}

			prevHash := ""
			var drained uint64
			for round := 0; round < 2; round++ {
				oldPrs := runtimesOf(s, 1)
				mu.Lock()
				gen = s.Generation() + 1
				mu.Unlock()
				if err := s.ReloadProvide(1, reloadGraph(), provide); err != nil {
					t.Fatalf("reload %d: %v", round, err)
				}
				want := uint64(2 + round)
				if got := s.Generation(); got != want {
					t.Fatalf("generation = %d after reload %d, want %d (monotonic)", got, round, want)
				}
				// Drain completeness: the old generation is sealed, empty
				// and stopped the moment Reload returns.
				for i, pr := range oldPrs {
					if !pr.gone.Load() || !pr.retired.Load() {
						t.Fatalf("old runtime %d not sealed/retired after reload", i)
					}
					if n := pr.inflight.Load(); n != 0 {
						t.Fatalf("old runtime %d still has %d in-flight packets", i, n)
					}
				}
				// No old-generation packet is observable at any NF from
				// here on: freeze the counts, push new traffic, re-check.
				mu.Lock()
				oldInsts := append([]*countNF(nil), byGen[want-1]...)
				mu.Unlock()
				frozen := make([]uint64, len(oldInsts))
				for i, c := range oldInsts {
					frozen[i] = c.processedTotal()
				}
				inject(wave)
				for i, c := range oldInsts {
					if got := c.processedTotal(); got != frozen[i] {
						t.Fatalf("drained generation %d instance %s saw %d packets after reload (had %d)",
							want-1, c.Name(), got-frozen[i]+frozen[i], frozen[i])
					}
				}

				info := s.ConfigInfo()
				last := info.History[len(info.History)-1]
				if last.Generation != want || last.SwappedNS == 0 {
					t.Fatalf("history tail = %+v, want generation %d with a swap timestamp", last, want)
				}
				if prevHash != "" && last.Hash != prevHash {
					t.Fatalf("compile hash changed across a same-policy reload: %s -> %s", prevHash, last.Hash)
				}
				prevHash = last.Hash
				// The drain counter grows by exactly the recorded drain.
				drained += last.Drained
				if got := s.Telemetry().Counter("nfp_reload_drained_total").Value(); got != drained {
					t.Fatalf("nfp_reload_drained_total = %d after generation %d, history sums to %d",
						got, want, drained)
				}
			}

			// History timestamps are monotonic like the generations.
			info := s.ConfigInfo()
			for i := 1; i < len(info.History); i++ {
				if info.History[i].Generation <= info.History[i-1].Generation {
					t.Fatalf("history generations not increasing: %+v", info.History)
				}
				if info.History[i].InstalledNS < info.History[i-1].InstalledNS {
					t.Fatalf("history timestamps not monotonic: %+v", info.History)
				}
			}

			s.Stop()
			outs := uint64(col.wait())
			st := s.Stats()
			if st.Injected != 3*wave {
				t.Fatalf("injected = %d, want %d", st.Injected, 3*wave)
			}
			if st.Outputs+st.Drops != st.Injected || outs != st.Outputs {
				t.Fatalf("conservation broken: injected=%d outputs=%d drops=%d collected=%d",
					st.Injected, st.Outputs, st.Drops, outs)
			}
			if leak := s.Pool().InUse(); leak != 0 {
				t.Fatalf("pool leak: %d buffers", leak)
			}
		})
	}
}

// TestReloadUnderLoadConservation reloads while injector goroutines
// pump traffic flat out: the swap must lose nothing — injected ==
// outputs + drops summed across generations, zero pool leaks.
func TestReloadUnderLoadConservation(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			s := New(Config{PoolSize: 1024, Burst: 16, Shards: shards})
			if err := s.AddGraph(1, reloadGraph()); err != nil {
				t.Fatal(err)
			}
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			col := collectOutputs(s)

			const perWorker = 2000
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						pkt := buildInto(t, s, spec(byte((w*31+i)%17), uint16(1000+i%29), "load"))
						if !s.Inject(pkt) {
							pkt.Free()
						}
					}
				}(w)
			}

			for r := 0; r < 3; r++ {
				if err := s.Reload(1, reloadGraph()); err != nil {
					t.Fatalf("reload %d: %v", r, err)
				}
			}
			wg.Wait()
			s.Stop()
			outs := uint64(col.wait())

			st := s.Stats()
			if got := s.Generation(); got != 4 {
				t.Fatalf("generation = %d, want 4", got)
			}
			if st.Outputs+st.Drops != st.Injected || outs != st.Outputs {
				t.Fatalf("conservation broken: injected=%d outputs=%d drops=%d collected=%d",
					st.Injected, st.Outputs, st.Drops, outs)
			}
			if leak := s.Pool().InUse(); leak != 0 {
				t.Fatalf("pool leak: %d buffers", leak)
			}
		})
	}
}

// TestChaosReloadPanicDuringDrain panics an old-generation NF while
// that generation is draining: the stalled backlog is built up behind a
// wedged NF, the reload swaps and starts waiting, and releasing the
// stall detonates a scheduled panic inside the drain window. The drain
// must still complete (panicked burst + unhealthy arrivals all resolve
// to accounted drops), the reload must return, and the new generation
// must carry traffic. The panicked instance is never restarted, but its
// series are the successor's: they must report the live generation,
// which is healthy, and the panic must stay counted.
func TestChaosReloadPanicDuringDrain(t *testing.T) {
	stallMon := faultinject.NewStallNF(faultinject.NewPanicNF(nf.NewMonitor(), 1))
	fwd := mustNF(t, nfa.NFL3Fwd)
	s := New(Config{PoolSize: 512, Burst: 8})
	err := s.AddGraphProvide(1, reloadGraph(), func(_ int, node graph.NF) nf.NF {
		if node.Name == nfa.NFMonitor {
			return stallMon
		}
		return fwd
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	col := collectOutputs(s)
	stallMon.Stall()

	const wave = 100
	for i := 0; i < wave; i++ {
		pkt := buildInto(t, s, spec(byte(i%7), uint16(1000+i%5), "drainpanic"))
		if !s.Inject(pkt) {
			t.Fatal("classification failed")
		}
	}

	reloadDone := make(chan error, 1)
	go func() { reloadDone <- s.Reload(1, reloadGraph()) }()

	// Wait for the swap (generation advances at swap time, before the
	// drain), so the panic provably fires inside the drain window.
	for limit := time.Now().Add(5 * time.Second); s.Generation() != 2; {
		if time.Now().After(limit) {
			t.Fatal("swap did not happen")
		}
		time.Sleep(50 * time.Microsecond)
	}
	stallMon.Release()

	select {
	case err := <-reloadDone:
		if err != nil {
			t.Fatalf("reload: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("reload did not finish draining after the panic")
	}

	// The new generation is live: a fresh wave flows end-to-end.
	pre := s.Stats().Outputs
	for i := 0; i < wave; i++ {
		pkt := buildInto(t, s, spec(byte(i%7), uint16(2000+i%5), "postreload"))
		if !s.Inject(pkt) {
			t.Fatal("classification failed")
		}
	}
	s.Stop()
	outs := uint64(col.wait())

	st := s.Stats()
	if st.Panics == 0 {
		t.Fatal("the scheduled panic never fired")
	}
	if st.Outputs+st.Drops != st.Injected || outs != st.Outputs {
		t.Fatalf("conservation broken: injected=%d outputs=%d drops=%d collected=%d",
			st.Injected, st.Outputs, st.Drops, outs)
	}
	if st.Outputs < pre+wave {
		t.Fatalf("outputs = %d, want >= %d (post-reload wave must flow)", st.Outputs, pre+wave)
	}
	if leak := s.Pool().InUse(); leak != 0 {
		t.Fatalf("pool leak: %d buffers", leak)
	}

	snap := s.Telemetry().Snapshot()
	mon := []telemetry.Label{telemetry.L("nf", nfa.NFMonitor), telemetry.L("mid", "1")}
	if v := snap.GaugeValue("nfp_nf_healthy", mon...); v != 1 {
		t.Fatalf("nfp_nf_healthy{nf=monitor,mid=1} = %d after the drain, want 1 (the live generation's)", v)
	}
	if v := snap.CounterValue("nfp_nf_panics_total", mon...); v != st.Panics {
		t.Fatalf("nfp_nf_panics_total{nf=monitor,mid=1} = %d, Stats().Panics = %d", v, st.Panics)
	}
	// /debug/health over a window that opens after the panic: one row
	// per NF, and nothing the retired generation did degrades it.
	d := diagnose.New(diagnose.Config{Registry: s.Telemetry()})
	d.SampleNow()
	d.SampleNow()
	w := httptest.NewRecorder()
	d.Handlers()["/debug/health"].ServeHTTP(w, httptest.NewRequest("GET", "/debug/health", nil))
	var rep diagnose.HealthReport
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Bottlenecks) != 2 || rep.State != diagnose.StateOK {
		t.Fatalf("/debug/health: state %q, %d rows (want ok, one per NF): %+v reasons %v",
			rep.State, len(rep.Bottlenecks), rep.Bottlenecks, rep.Reasons)
	}
}

// TestReloadSeriesBounded is the registry-bound property: a series is
// named by what it measures, not by the generation that built it, so a
// thousand reloads of fwd64's five-forwarder chain leave exactly the
// series the install made, and the per-NF counters run on across them.
func TestReloadSeriesBounded(t *testing.T) {
	var chain graph.Seq
	for i := 0; i < 5; i++ {
		chain.Items = append(chain.Items, nfn(nfa.NFL3Fwd, i))
	}
	s := New(Config{PoolSize: 256, Burst: 8})
	if err := s.AddGraph(1, chain); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	col := collectOutputs(s)
	const wave = 50
	inject := func() {
		for i := 0; i < wave; i++ {
			if !s.Inject(buildInto(t, s, spec(byte(i%7), uint16(1000+i), "series"))) {
				t.Fatal("classification failed")
			}
		}
	}
	series := func() int {
		snap := s.Telemetry().Snapshot()
		return len(snap.Counters) + len(snap.Gauges) + len(snap.Histograms)
	}
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	inject()
	installed, heap0 := series(), liveHeap()
	const reloads = 1000
	for r := 0; r < reloads; r++ {
		if err := s.Reload(1, chain); err != nil {
			t.Fatalf("reload %d: %v", r, err)
		}
	}
	if got := series(); got != installed {
		t.Fatalf("registry holds %d series after %d reloads, %d after the install", got, reloads, installed)
	}
	heap1 := liveHeap()
	t.Logf("%d series; live heap after GC %.1f -> %.1f MB over %d reloads",
		installed, float64(heap0)/1e6, float64(heap1)/1e6, reloads)

	inject()
	s.Stop()
	col.wait()
	snap := s.Telemetry().Snapshot()
	for i := range chain.Items {
		name := nfn(nfa.NFL3Fwd, i).String()
		got := snap.CounterValue("nfp_nf_packets_in_total", telemetry.L("nf", name), telemetry.L("mid", "1"))
		if got != 2*wave {
			t.Fatalf("nfp_nf_packets_in_total{nf=%s} = %d across the reloads, want %d", name, got, 2*wave)
		}
	}
}

// TestReloadFailedBuildRegistersNoSeries: a reload whose graph names an
// NF no registry can build fails before it registers a series, so no
// health gauge is left behind that no runtime publishes.
func TestReloadFailedBuildRegistersNoSeries(t *testing.T) {
	s := New(Config{PoolSize: 64})
	if err := s.AddGraph(1, reloadGraph()); err != nil {
		t.Fatal(err)
	}
	series := func() int {
		snap := s.Telemetry().Snapshot()
		return len(snap.Counters) + len(snap.Gauges) + len(snap.Histograms)
	}
	before := series()
	bad := graph.Seq{Items: []graph.Node{nfn(nfa.NFMonitor, 1), nfn("no-such-nf", 0)}}
	if err := s.Reload(1, bad); err == nil {
		t.Fatal("reload of an unbuildable graph succeeded")
	}
	if got := series(); got != before {
		t.Fatalf("failed reload left %d series, want %d", got, before)
	}
}

// TestChaosReloadStorm fires 10 back-to-back reloads under sustained
// injection — the SIGHUP-storm scenario. Every swap must land
// (generation 11), with conservation and zero leaks at the end.
func TestChaosReloadStorm(t *testing.T) {
	s := New(Config{PoolSize: 1024, Burst: 16, Shards: 2})
	if err := s.AddGraph(1, reloadGraph()); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	col := collectOutputs(s)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			pkt := buildInto(t, s, spec(byte(i%23), uint16(1000+i%19), "storm"))
			if !s.Inject(pkt) {
				pkt.Free()
			}
		}
	}()

	for r := 0; r < 10; r++ {
		if err := s.Reload(1, reloadGraph()); err != nil {
			t.Fatalf("reload %d: %v", r, err)
		}
	}
	close(stop)
	wg.Wait()
	s.Stop()
	outs := uint64(col.wait())

	if got := s.Generation(); got != 11 {
		t.Fatalf("generation = %d after 10 reloads, want 11", got)
	}
	st := s.Stats()
	if st.Outputs+st.Drops != st.Injected || outs != st.Outputs {
		t.Fatalf("conservation broken: injected=%d outputs=%d drops=%d collected=%d",
			st.Injected, st.Outputs, st.Drops, outs)
	}
	if leak := s.Pool().InUse(); leak != 0 {
		t.Fatalf("pool leak: %d buffers", leak)
	}
}

// TestChaosReloadSaturatedRing reloads while a tiny NF ring is
// saturated behind a slow NF: nothing may be lost, and the reload must
// drain without deadlock or leak. It runs over a chain and over graphs
// with joins, where branch tails sit in the merger ring across the swap
// and must finalize against their own generation. After Stop every
// dataplane goroutine — the mergers included, which no longer have a
// channel close to wake them — is gone.
func TestChaosReloadSaturatedRing(t *testing.T) {
	graphs := map[string]graph.Node{
		"chain": graph.Seq{Items: []graph.Node{nfn(nfa.NFMonitor, 0), nfn(nfa.NFL3Fwd, 0)}},
		"join": graph.Seq{Items: []graph.Node{
			graph.Par{Branches: []graph.Node{nfn(nfa.NFMonitor, 0), nfn(nfa.NFL3Fwd, 0)}},
			nfn(nfa.NFL3Fwd, 1),
		}},
		// Two generations' copies and tails draw on one admission budget.
		"two joins": graph.Seq{Items: []graph.Node{
			copyStage(nfn(nfa.NFMonitor, 0), nfn(nfa.NFLB, 0)),
			copyStage(nfn(nfa.NFL3Fwd, 0), nfn(nfa.NFLB, 1)),
		}},
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			slow := faultinject.NewStallNF(nf.NewMonitor())
			slow.SetDelay(20 * time.Microsecond)
			s := New(Config{
				PoolSize: 512, RingSize: 8, Burst: 4,
				// Isolate the slow NF in its own segment so its ring —
				// not a fused segment's — is the saturation point.
				Fusion: FusionOff,
			})
			err := s.AddGraphProvide(1, g, func(_ int, node graph.NF) nf.NF {
				if node.Name == nfa.NFMonitor {
					return slow
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			col := collectOutputs(s)

			const total = 1200
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < total; i++ {
					pkt := buildInto(t, s, spec(byte(i%13), uint16(1000+i%7), "saturate"))
					if !s.Inject(pkt) {
						pkt.Free()
					}
				}
			}()

			// Let the ring wedge solid, then swap generations under it.
			time.Sleep(2 * time.Millisecond)
			if err := s.Reload(1, g); err != nil {
				t.Fatalf("reload under saturation: %v", err)
			}
			wg.Wait()
			s.Stop()
			outs := uint64(col.wait())

			st := s.Stats()
			if st.Outputs != st.Injected || st.Drops != 0 || outs != st.Outputs {
				t.Fatalf("a full ring lost packets across the reload: injected=%d outputs=%d drops=%d collected=%d",
					st.Injected, st.Outputs, st.Drops, outs)
			}
			if leak := s.Pool().InUse(); leak != 0 {
				t.Fatalf("pool leak: %d buffers", leak)
			}
			if got := s.Generation(); got != 2 {
				t.Fatalf("generation = %d, want 2", got)
			}
			for limit := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
				if time.Now().After(limit) {
					t.Fatalf("%d goroutines after Stop, %d before New: a runtime or merger leaked",
						runtime.NumGoroutine(), baseline)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestReloadStopConcurrent is the regression for the Stop-vs-inflight
// ordering hazard: Stop racing an in-progress Reload must drain BOTH
// generations — whichever wins the serialization, every injected packet
// surfaces and no buffer leaks. The reload is pinned mid-drain behind a
// stalled old-generation NF when Stop arrives, so the race window is
// real, not incidental.
func TestReloadStopConcurrent(t *testing.T) {
	stallMon := faultinject.NewStallNF(nf.NewMonitor())
	s := New(Config{PoolSize: 512, Burst: 8})
	err := s.AddGraphProvide(1, reloadGraph(), func(_ int, node graph.NF) nf.NF {
		if node.Name == nfa.NFMonitor {
			return stallMon
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	col := collectOutputs(s)
	stallMon.Stall()

	const wave = 120
	for i := 0; i < wave; i++ {
		pkt := buildInto(t, s, spec(byte(i%7), uint16(1000+i%5), "stopreload"))
		if !s.Inject(pkt) {
			t.Fatal("classification failed")
		}
	}

	reloadDone := make(chan error, 1)
	go func() { reloadDone <- s.Reload(1, reloadGraph()) }()
	// The reload is now stuck draining the stalled old generation
	// (after its swap). Stop must queue behind it, not race it.
	for limit := time.Now().Add(5 * time.Second); s.Generation() != 2; {
		if time.Now().After(limit) {
			t.Fatal("swap did not happen")
		}
		time.Sleep(50 * time.Microsecond)
	}
	stopDone := make(chan struct{})
	go func() { s.Stop(); close(stopDone) }()
	time.Sleep(time.Millisecond)
	stallMon.Release()

	select {
	case err := <-reloadDone:
		if err != nil {
			t.Fatalf("reload: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("reload deadlocked against Stop")
	}
	select {
	case <-stopDone:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop deadlocked against reload")
	}
	outs := uint64(col.wait())

	st := s.Stats()
	if st.Injected != wave || st.Outputs+st.Drops != st.Injected || outs != st.Outputs {
		t.Fatalf("both generations must drain: injected=%d outputs=%d drops=%d collected=%d",
			st.Injected, st.Outputs, st.Drops, outs)
	}
	if leak := s.Pool().InUse(); leak != 0 {
		t.Fatalf("pool leak: %d buffers", leak)
	}

	// And the other interleaving: a reload arriving after Stop is
	// rejected cleanly instead of resurrecting runtimes.
	if err := s.Reload(1, reloadGraph()); err == nil {
		t.Fatal("reload after Stop must fail")
	}
}

// TestReloadErrors pins the API edges: reloading a MID that was never
// installed fails, and the failed attempt neither bumps the generation
// nor disturbs the live graph.
func TestReloadErrors(t *testing.T) {
	s := New(Config{PoolSize: 128})
	if err := s.AddGraph(1, nfn(nfa.NFMonitor, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Reload(7, nfn(nfa.NFMonitor, 0)); err == nil {
		t.Fatal("reload of uninstalled MID must fail")
	}
	if got := s.Generation(); got != 1 {
		t.Fatalf("failed reload bumped generation to %d", got)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	col := collectOutputs(s)
	pkt := buildInto(t, s, spec(1, 1000, "ok"))
	if !s.Inject(pkt) {
		t.Fatal("live graph disturbed by failed reload")
	}
	s.Stop()
	if outs := col.wait(); outs != 1 {
		t.Fatalf("outputs = %d, want 1", outs)
	}
}
