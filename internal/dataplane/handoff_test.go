package dataplane

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"nfp/internal/faultinject"
	"nfp/internal/graph"
	"nfp/internal/nf"
	"nfp/internal/nfa"
	"nfp/internal/packet"
)

// Hand-built plan vocabulary: the executor is tested against dispatch
// lists CompilePlan never emits (a copy that also distributes, one
// dispatch with several targets) as well as the ones it does.
var toOutput = Target{Kind: ToOutput}

func toNode(n int) Target { return Target{Kind: ToNode, Node: n} }
func toJoin(j int) Target { return Target{Kind: ToJoin, Join: j} }

func send(v uint8, ts ...Target) Dispatch { return Dispatch{SrcVersion: v, Targets: ts} }
func copyTo(src, nv uint8, ts ...Target) Dispatch {
	return Dispatch{SrcVersion: src, NewVersion: nv, Targets: ts}
}

// carry is the merge-op pair that lifts the LB's address rewrite from
// version v onto the base.
func carry(v uint8) []graph.MergeOp {
	return []graph.MergeOp{
		{Kind: graph.OpModify, SrcVersion: v, SrcField: packet.FieldSrcIP, DstField: packet.FieldSrcIP},
		{Kind: graph.OpModify, SrcVersion: v, SrcField: packet.FieldDstIP, DstField: packet.FieldDstIP},
	}
}

// portDropper drops by packet content (every third source port), so
// the drop set is a function of the traffic, not of arrival order.
type portDropper struct{}

func (portDropper) Name() string { return "portdrop" }
func (portDropper) Profile() nfa.Profile {
	return nfa.Profile{Name: "portdrop", Actions: []nfa.Action{nfa.Drop()}}
}
func (portDropper) Process(p *packet.Packet) nf.Verdict {
	if p.SrcPort()%3 == 0 {
		return nf.Drop
	}
	return nf.Pass
}

var portDropNF = graph.NF{Name: "portdrop"}

// installPlan publishes a hand-built plan on shard 0 the way install
// does for a compiled one (single-shard servers only).
func installPlan(t *testing.T, s *Server, p *Plan) *planRuntime {
	t.Helper()
	for i := range p.Nodes {
		p.Nodes[i].ID = i
	}
	for i := range p.Joins {
		p.Joins[i].ID = i
	}
	sh := s.shards[0]
	pr, err := s.buildRuntime(sh, p, func(_ int, n graph.NF) nf.NF {
		if n == portDropNF {
			return portDropper{}
		}
		return nil
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sh.plans.Store(&map[uint32]*planRuntime{p.MID: pr})
	s.classifier.SetDefault(p.MID)
	return pr
}

func shapeSpec(i int) packet.BuildSpec {
	return spec(byte(i%9), uint16(2000+i%31), fmt.Sprintf("shape %02d", i%7))
}

// execShapes are the dispatch-list shapes the one executor must handle.
// Each has one branch that is the LB — on a copy wherever the shape makes
// one, a monitor where the branch shares the original — or, with drop
// set, an NF that drops there.
func execShapes(drop bool) map[string]*Plan {
	mon := func(i int) graph.NF { return nfn(nfa.NFMonitor, i) }
	shared, copied := mon(9), nfn(nfa.NFLB, 0)
	if drop {
		shared, copied = portDropNF, portDropNF
	}
	out := []Dispatch{send(1, toOutput)}
	return map[string]*Plan{
		// One dispatch, two targets, no copy: both NFs share the burst.
		"multi-target no-copy group": {
			MID: 1, BaseVersion: 1, MaxVersion: 1,
			Entry: []Dispatch{send(1, toNode(0), toNode(1))},
			Nodes: []PlanNode{
				{NF: mon(0), Next: []Dispatch{send(1, toJoin(0))}, DropTo: toJoin(0)},
				{NF: shared, Next: []Dispatch{send(1, toJoin(0))}, DropTo: toJoin(0)},
			},
			Joins: []JoinSpec{{ExpectTails: 2, BaseVersion: 1, Versions: []uint8{1}, Next: out, DropTo: toOutput}},
		},
		// A copy dispatch that distributes its own copy, in an NF's
		// forwarding table.
		"copy + distribute": {
			MID: 1, BaseVersion: 1, MaxVersion: 2,
			Entry: []Dispatch{send(1, toNode(0))},
			Nodes: []PlanNode{
				{NF: mon(0), Next: []Dispatch{copyTo(1, 2, toNode(2)), send(1, toNode(1))}, DropTo: toOutput},
				{NF: mon(1), Next: []Dispatch{send(1, toJoin(0))}, DropTo: toJoin(0)},
				{NF: copied, Next: []Dispatch{send(2, toJoin(0))}, DropTo: toJoin(0)},
			},
			Joins: []JoinSpec{{ExpectTails: 2, BaseVersion: 1, Versions: []uint8{1, 2}, Ops: carry(2), Next: out, DropTo: toOutput}},
		},
		// Entry-level copies with empty target lists, the second a copy
		// of the first feeding a nested stage whose join continues into
		// the outer join.
		"nested copies, join into join": {
			MID: 1, BaseVersion: 1, MaxVersion: 3,
			Entry: []Dispatch{copyTo(1, 2), copyTo(2, 3), send(1, toNode(0)), send(2, toNode(1)), send(3, toNode(2))},
			Nodes: []PlanNode{
				{NF: mon(0), Next: []Dispatch{send(1, toJoin(0))}, DropTo: toJoin(0)},
				{NF: mon(1), Next: []Dispatch{send(2, toJoin(1))}, DropTo: toJoin(1)},
				{NF: copied, Next: []Dispatch{send(3, toJoin(1))}, DropTo: toJoin(1)},
			},
			Joins: []JoinSpec{
				{ExpectTails: 2, BaseVersion: 1, Versions: []uint8{1, 2}, Ops: carry(2), Next: out, DropTo: toOutput},
				{ExpectTails: 2, BaseVersion: 2, Versions: []uint8{2, 3}, Ops: carry(3), Next: []Dispatch{send(2, toJoin(0))}, DropTo: toJoin(0)},
			},
		},
	}
}

type shapeRun struct {
	Outputs     map[uint64]string
	Drops       uint64
	Copies      uint64
	CopiedBytes uint64
	MergerLoad  []uint64
}

func runShape(t *testing.T, p *Plan, burst int) shapeRun {
	t.Helper()
	const n = 231 // seven bursts of 33: full chunks and a tail at every size
	s := New(Config{PoolSize: 1024, Mergers: 2, Burst: burst})
	installPlan(t, s, p)
	r := shapeRun{Outputs: map[uint64]string{}}
	for _, pkt := range runTrafficBurst(t, s, n, burst, shapeSpec) {
		r.Outputs[pkt.Meta.PID] = string(pkt.Bytes())
		pkt.Free()
	}
	st := s.Stats()
	r.Drops, r.Copies, r.CopiedBytes, r.MergerLoad = st.Drops, st.Copies, st.CopiedBytes, st.MergerLoad
	if st.Injected != n || st.Outputs+st.Drops != n || int(st.Outputs) != len(r.Outputs) {
		t.Errorf("burst %d conservation: injected=%d outputs=%d drops=%d collected=%d",
			burst, st.Injected, st.Outputs, st.Drops, len(r.Outputs))
	}
	if leak := s.Pool().InUse(); leak != 0 {
		t.Errorf("burst %d leaked %d buffers", burst, leak)
	}
	return r
}

// TestExecBurstShapes holds every dispatch-list shape to its burst-of-one
// execution: the same per-PID output bytes (so the same drop set), the
// same copy and merger accounting, at a burst of 3, a full chunk and one
// past the chunk boundary.
func TestExecBurstShapes(t *testing.T) {
	for _, drop := range []bool{false, true} {
		for name := range execShapes(drop) {
			t.Run(fmt.Sprintf("%s/drop=%v", name, drop), func(t *testing.T) {
				want := runShape(t, execShapes(drop)[name], 1)
				if drop == (want.Drops == 0) {
					t.Fatalf("drops = %d with drop=%v: drop routes not exercised as intended", want.Drops, drop)
				}
				if want.Copies == 0 && execShapes(drop)[name].MaxVersion > 1 {
					t.Fatal("no copies made")
				}
				for _, burst := range []int{3, execChunk, execChunk + 1} {
					got := runShape(t, execShapes(drop)[name], burst)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("burst %d differs from burst 1:\n got drops=%d copies=%d bytes=%d load=%v outputs=%d\nwant drops=%d copies=%d bytes=%d load=%v outputs=%d",
							burst, got.Drops, got.Copies, got.CopiedBytes, got.MergerLoad, len(got.Outputs),
							want.Drops, want.Copies, want.CopiedBytes, want.MergerLoad, len(want.Outputs))
					}
				}
			})
		}
	}
}

// TestExecBurstFanoutAllocs: fanning a 32-burst out to two rings with
// one copy, from an injector goroutine, allocates nothing — the
// executor's scratch is on the injector's stack.
func TestExecBurstFanoutAllocs(t *testing.T) {
	s := New(Config{PoolSize: 256, RingSize: 64})
	pr := installPlan(t, s, &Plan{
		MID: 1, BaseVersion: 1, MaxVersion: 2,
		Entry: []Dispatch{copyTo(1, 2, toNode(1)), send(1, toNode(0))},
		Nodes: []PlanNode{
			{NF: nfn(nfa.NFMonitor, 0), Next: []Dispatch{send(1, toOutput)}, DropTo: toOutput},
			{NF: nfn(nfa.NFMonitor, 1), Next: []Dispatch{send(2, toOutput)}, DropTo: toOutput},
		},
	})
	var pkts, drained [execChunk]*packet.Packet
	if s.Pool().AllocBatch(pkts[:]) != len(pkts) {
		t.Fatal("pool too small")
	}
	for i, p := range pkts {
		packet.BuildInto(p, shapeSpec(i))
	}
	// The server is never started: the test goroutine is the only one
	// running, and plays consumer — and emit, settling the burst's budget —
	// between runs.
	allocs := testing.AllocsPerRun(50, func() {
		if s.InjectBatch(pkts[:]) != len(pkts) {
			t.Fatal("burst rejected")
		}
		if pr.owner[0].rx.DequeueBatch(drained[:]) != len(pkts) {
			t.Fatal("originals not delivered as one burst")
		}
		if pr.owner[1].rx.DequeueBatch(drained[:]) != len(pkts) {
			t.Fatal("copies not delivered as one burst")
		}
		s.Pool().FreeBatch(drained[:])
		s.shards[0].settle(pr, len(pkts), true)
	})
	if allocs != 0 {
		t.Errorf("fan-out of one burst allocates %.1f times, want 0", allocs)
	}
	if got := s.Stats().Copies; got != 51*execChunk {
		t.Errorf("copies = %d, want %d", got, 51*execChunk)
	}
	s.Pool().FreeBatch(pkts[:])
}

// backpressureSites returns the nodes named by the backpressure events
// on the flight recorder.
func backpressureSites(s *Server) map[string]bool {
	sites := map[string]bool{}
	for _, e := range s.FlightRecorder().Events(0) {
		if e.Kind == "backpressure" {
			sites[e.Node] = true
		}
	}
	return sites
}

// waitBackpressure polls until a backpressure event names site.
func waitBackpressure(t *testing.T, s *Server, site string) {
	t.Helper()
	for limit := time.Now().Add(10 * time.Second); !backpressureSites(s)[site]; {
		if time.Now().After(limit) {
			t.Fatalf("no producer parked at %q: sites=%v", site, backpressureSites(s))
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestExecBurstPoolExhaustionMidBurst: a burst whose copies the pool can
// only partly provide — a co-tenant holds everything but the copy
// reserve, and a stalled branch keeps the first copies alive. Admission
// lets in exactly the prefix the reserve covers and the injector parks
// there, at ingress, charged to admission; the copy allocation inside
// the graph never comes back short even with the pool drained to its
// last buffer and a fault schedule armed on it (which fails the traffic
// source's next allocation, nothing inside the graph). Once the branch
// moves the rest follows: nothing is lost and the copy count is exact.
func TestExecBurstPoolExhaustionMidBurst(t *testing.T) {
	const poolSize, burst = 64, 32
	const reserve = poolSize / copyReserveDiv
	stall := faultinject.NewStallNF(nf.NewMonitor())
	s := New(Config{PoolSize: poolSize, Burst: burst, SpinLimit: -1})
	g := graph.Par{
		Branches: []graph.Node{nfn(nfa.NFMonitor, 0), nfn(nfa.NFLB, 0)},
		Groups:   [][]int{{0}, {1}},
		FullCopy: []bool{false, false},
		Ops:      carry(2),
	}
	if err := s.AddGraphInstances(1, g, map[graph.NF]nf.NF{nfn(nfa.NFMonitor, 0): stall}); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	col := collectOutputs(s)
	stall.Stall()

	var pkts [burst]*packet.Packet
	if s.Pool().AllocBatch(pkts[:]) != burst {
		t.Fatal("pool too small")
	}
	for i, p := range pkts {
		packet.BuildInto(p, shapeSpec(i))
	}
	hog := faultinject.NewPoolHog(s.Pool())
	if hog.Grab(poolSize); s.Pool().Available() != reserve {
		t.Fatalf("hog left %d buffers, want the copy reserve of %d", s.Pool().Available(), reserve)
	}
	failsBefore := s.Pool().Stats().Failures
	sched := faultinject.NewAllocSchedule(1)
	s.Pool().SetFaultHook(sched.Hook)
	injDone := make(chan int)
	go func() { injDone <- s.InjectBatch(pkts[:]) }()

	waitBackpressure(t, s, "admission")
	if st := s.Stats(); st.Injected != reserve || st.Copies != reserve {
		t.Errorf("behind the stalled branch: injected=%d copies=%d, want the %d packets the reserve covers",
			st.Injected, st.Copies, reserve)
	}
	if s.Pool().InUse() != poolSize {
		t.Errorf("pool in use = %d, want all %d: the admitted copies take exactly the reserve", s.Pool().InUse(), poolSize)
	}
	if parks := s.Telemetry().Counter("nfp_backpressure_parks_total").Value(); parks == 0 {
		t.Error("backpressure event without a counted park")
	}

	stall.Release()
	if acc := <-injDone; acc != burst {
		t.Fatalf("InjectBatch accepted %d of %d", acc, burst)
	}
	hog.ReleaseAll()
	s.Stop()
	if sched.Batches() != 0 {
		t.Errorf("the copy path consulted the fault schedule %d times", sched.Batches())
	}
	if s.Pool().Get() != nil || sched.Failed() != 1 {
		t.Errorf("the schedule did not fail the source's allocation (%d failed)", sched.Failed())
	}
	s.Pool().SetFaultHook(nil)

	st := s.Stats()
	if outs := col.wait(); outs != burst || st.Outputs != burst || st.Drops != 0 {
		t.Fatalf("lossless copy path lost packets: collected=%d outputs=%d drops=%d", outs, st.Outputs, st.Drops)
	}
	if st.Copies != burst {
		t.Errorf("copies = %d, want %d", st.Copies, burst)
	}
	if fails := s.Pool().Stats().Failures - failsBefore; fails != 1 {
		t.Errorf("%d allocation failures, want the source's scheduled one and none inside the graph", fails)
	}
	if leak := s.Pool().InUse(); leak != 0 {
		t.Fatalf("pool leak: %d buffers", leak)
	}
}

// TestJoinBackpressure: a stalled NF behind a join stops the merger, in
// the lossless spin → park push on that NF's ring; the merger's own ring
// takes every tail in flight without filling, because admission stops
// the injector at ingress once the tails it let in would no longer fit —
// and says so, on the parks counter and with an event naming admission.
func TestJoinBackpressure(t *testing.T) {
	stall := faultinject.NewStallNF(nf.NewMonitor())
	s := New(Config{PoolSize: 2 * mergerQueue, RingSize: 8, Burst: 8, Mergers: 1, SpinLimit: 4})
	g := graph.Seq{Items: []graph.Node{
		graph.Par{Branches: []graph.Node{nfn(nfa.NFMonitor, 0), nfn(nfa.NFMonitor, 1)}},
		nfn(nfa.NFMonitor, 2),
	}}
	err := s.AddGraphInstances(1, g, map[graph.NF]nf.NF{nfn(nfa.NFMonitor, 2): stall})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	col := collectOutputs(s)
	stall.Stall()

	// Two tails per packet: the budget admits mergerQueue/2 packets, and
	// the rest wait their turn outside the graph.
	const admitted = mergerQueue / 2
	const n = admitted + 200
	injDone := make(chan struct{})
	go func() {
		defer close(injDone)
		for i := 0; i < n; i++ {
			if !s.Inject(buildInto(t, s, shapeSpec(i))) {
				t.Error("classification failed")
				return
			}
		}
	}()
	waitBackpressure(t, s, "admission")
	waitBackpressure(t, s, "monitor#2") // the merger, behind the stalled NF's ring
	if got := s.Stats().Injected; got != admitted {
		t.Errorf("injected = %d behind the stalled join, want the %d the merger ring covers", got, admitted)
	}
	m := s.shards[0].mergers[0]
	if hw, max := m.ringHW.Value(), int64(m.rx.Cap()); hw > max {
		t.Errorf("nfp_merger_ring_high_water = %d, over the ring's capacity %d", hw, max)
	}
	if hw, bound := m.atHW.Value(), int64(m.at.bound); hw > bound || bound != admitted {
		t.Errorf("nfp_merger_at_high_water = %d, table bound %d, want both within the %d packets admitted", hw, bound, admitted)
	}
	if parks := s.Telemetry().Counter("nfp_backpressure_parks_total").Value(); parks == 0 {
		t.Error("backpressure event without a counted park")
	}

	stall.Release()
	<-injDone
	s.Stop()
	st := s.Stats()
	if outs := col.wait(); outs != n || st.Injected != n || st.Outputs != n || st.Drops != 0 {
		t.Fatalf("join backpressure lost packets: injected=%d outputs=%d drops=%d collected=%d",
			st.Injected, st.Outputs, st.Drops, outs)
	}
	if leak := s.Pool().InUse(); leak != 0 {
		t.Fatalf("pool leak: %d buffers", leak)
	}
}

// TestJoinBackpressureStalledBranch: one branch of a copying stage stalls
// while the other keeps reporting, so Accumulating Table entries pile up
// with one tail each — as far as admission lets them: the merger ring
// divided by the two tails a packet brings, which is the table's entry
// bound, held in an array twice that. The merger neither waits nor
// overfills (it would panic, naming the bound); once the branch moves
// everything completes, with exactly one copy per packet.
func TestJoinBackpressureStalledBranch(t *testing.T) {
	stall := faultinject.NewStallNF(nf.NewMonitor())
	// A copy reserve (an eighth of the pool) and NF rings that cover what
	// the merger ring admits, so the tails budget is what binds.
	const admitted = mergerQueue / 2
	s := New(Config{PoolSize: 8 * admitted, RingSize: mergerQueue, Burst: 8, Mergers: 1, SpinLimit: 4})
	g := graph.Par{
		Branches: []graph.Node{nfn(nfa.NFMonitor, 0), nfn(nfa.NFLB, 0)},
		Groups:   [][]int{{0}, {1}},
		FullCopy: []bool{false, false},
		Ops:      carry(2),
	}
	if err := s.AddGraphInstances(1, g, map[graph.NF]nf.NF{nfn(nfa.NFMonitor, 0): stall}); err != nil {
		t.Fatal(err)
	}
	m := s.shards[0].mergers[0]
	if m.at.bound != admitted || len(m.at.slots) != 2*admitted {
		t.Fatalf("table of %d slots bounded at %d entries, want %d and %d", len(m.at.slots), m.at.bound, 2*admitted, admitted)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	col := collectOutputs(s)
	stall.Stall()

	const n = admitted + 200
	injDone := make(chan struct{})
	go func() {
		defer close(injDone)
		for i := 0; i < n; i++ {
			if !s.Inject(buildInto(t, s, shapeSpec(i))) {
				t.Error("classification failed")
				return
			}
		}
	}()
	waitBackpressure(t, s, "admission")
	// Every admitted packet's LB tail reaches the merger; none completes.
	for limit := time.Now().Add(10 * time.Second); m.atSize.Value() != admitted; {
		if time.Now().After(limit) {
			t.Fatalf("nfp_merger_at_size = %d behind the stalled branch, want the %d admitted", m.atSize.Value(), admitted)
		}
		time.Sleep(200 * time.Microsecond)
	}
	if got := s.Stats().Injected; got != admitted {
		t.Errorf("injected = %d, want the %d the merger ring covers", got, admitted)
	}
	if merged := m.merged.Value(); merged != 0 {
		t.Errorf("%d packets merged with one branch stalled", merged)
	}

	stall.Release()
	<-injDone
	s.Stop()
	if hw := m.atHW.Value(); hw != admitted {
		t.Errorf("nfp_merger_at_high_water = %d, want exactly the entry bound %d", hw, admitted)
	}
	st := s.Stats()
	if outs := col.wait(); outs != n || st.Injected != n || st.Outputs != n || st.Drops != 0 {
		t.Fatalf("stalled branch lost packets: injected=%d outputs=%d drops=%d collected=%d",
			st.Injected, st.Outputs, st.Drops, outs)
	}
	if st.Copies != n {
		t.Errorf("copies = %d, want %d", st.Copies, n)
	}
	if leak := s.Pool().InUse(); leak != 0 {
		t.Fatalf("pool leak: %d buffers", leak)
	}
}

// TestInjectPreclassifiedRejectsForeignVersion: the version rides in off
// the wire, so one the graph does not start from is refused — the caller
// keeps the packet and the reserved in-flight slot is given back — while
// 0 (unset) takes the graph's base version.
func TestInjectPreclassifiedRejectsForeignVersion(t *testing.T) {
	s := New(Config{PoolSize: 64})
	g := graph.Par{
		Branches: []graph.Node{nfn(nfa.NFMonitor, 0), nfn(nfa.NFLB, 0)},
		Groups:   [][]int{{0}, {1}},
		FullCopy: []bool{false, false},
	}
	if err := s.AddGraph(1, g); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	col := collectOutputs(s)
	for _, v := range []uint8{2, 3, packet.MaxVersion} {
		pkt := buildInto(t, s, shapeSpec(int(v)))
		pkt.Meta = packet.Meta{MID: 1, PID: uint64(v), Version: v}
		if s.InjectPreclassified(pkt) {
			t.Fatalf("version %d accepted", v)
		}
		pkt.Free() // still the caller's
	}
	if inflight := (*s.shards[0].plans.Load())[1].inflight.Load(); inflight != 0 {
		t.Errorf("rejected packets left %d in-flight slots reserved (a reload would never drain)", inflight)
	}
	for _, v := range []uint8{0, 1} {
		pkt := buildInto(t, s, shapeSpec(int(v)))
		pkt.Meta = packet.Meta{MID: 1, PID: 100 + uint64(v), Version: v}
		if !s.InjectPreclassified(pkt) {
			t.Fatalf("version %d rejected", v)
		}
	}
	s.Stop()
	if outs, st := col.wait(), s.Stats(); outs != 2 || st.Injected != 2 || st.Outputs != 2 {
		t.Errorf("collected=%d injected=%d outputs=%d, want 2 each", outs, st.Injected, st.Outputs)
	}
	if leak := s.Pool().InUse(); leak != 0 {
		t.Fatalf("pool leak: %d buffers", leak)
	}
}
