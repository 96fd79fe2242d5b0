package dataplane

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"nfp/internal/graph"
	"nfp/internal/nf"
	"nfp/internal/nfa"
	"nfp/internal/packet"
)

// dropEveryNth is a test NF that drops every n-th packet it sees.
type dropEveryNth struct {
	n    int
	seen int
}

func (d *dropEveryNth) Name() string { return "dropnth" }
func (d *dropEveryNth) Process(p *packet.Packet) nf.Verdict {
	d.seen++
	if d.n > 0 && d.seen%d.n == 0 {
		return nf.Drop
	}
	return nf.Pass
}

// nestedGraph is a two-level join tree, a -> ( b || (c -> (d || e)) ),
// with a copy group at both levels, the way the orchestrator emits it:
// c and e write, so their branch runs on its own copy while b reads the
// original, and each join carries the LB's address rewrite one level
// up. The inner join's continuation IS the outer join, so a merger
// continues into itself.
func nestedGraph() graph.Node {
	carryAddrs := []graph.MergeOp{
		{Kind: graph.OpModify, SrcVersion: 2, SrcField: packet.FieldSrcIP, DstField: packet.FieldSrcIP},
		{Kind: graph.OpModify, SrcVersion: 2, SrcField: packet.FieldDstIP, DstField: packet.FieldDstIP},
	}
	inner := graph.Par{
		Branches: []graph.Node{
			nfn(nfa.NFMonitor, 2), // d
			nfn(nfa.NFLB, 0),      // e: writes addresses
		},
		Groups:   [][]int{{0}, {1}},
		FullCopy: []bool{false, false},
		Ops:      carryAddrs,
	}
	return graph.Seq{Items: []graph.Node{
		nfn(nfa.NFMonitor, 0), // a
		graph.Par{
			Branches: []graph.Node{
				nfn(nfa.NFMonitor, 1), // b
				graph.Seq{Items: []graph.Node{nfn(nfa.NFL3Fwd, 0), inner}}, // c -> (d||e)
			},
			Groups:   [][]int{{0}, {1}},
			FullCopy: []bool{false, false},
			Ops:      carryAddrs,
		},
	}}
}

// TestNestedParallelLive exercises the two-level join tree end to end.
func TestNestedParallelLive(t *testing.T) {
	g := nestedGraph()
	s := New(Config{PoolSize: 128})
	if err := s.AddGraph(1, g); err != nil {
		t.Fatal(err)
	}
	outs := runTraffic(t, s, 40, func(i int) packet.BuildSpec {
		return spec(byte(i%4), uint16(4000+i), "nested")
	})
	if len(outs) != 40 {
		t.Fatalf("outputs = %d", len(outs))
	}
	for _, p := range outs {
		// The LB ran on the inner copy; its rewrite must surface in the
		// final output through two merge levels.
		if b := p.SrcIP().As4(); b[0] != 10 || b[1] != 100 {
			t.Errorf("LB rewrite lost through nested joins: src %v", p.SrcIP())
		}
		p.Free()
	}
	st := s.Stats()
	if st.Copies != 80 {
		t.Errorf("copies = %d, want 80 (one per join level)", st.Copies)
	}
	if s.Pool().Available() != 128 {
		t.Errorf("pool leak: %d/128", s.Pool().Available())
	}
}

// copyStage is a parallel stage that copies once and joins once.
func copyStage(a, b graph.NF) graph.Par {
	return graph.Par{
		Branches: []graph.Node{a, b},
		Groups:   [][]int{{0}, {1}},
		FullCopy: []bool{false, false},
	}
}

// sustainedLoad floods a started-from-scratch server with total packets
// in bursts of 32 while a consumer frees the outputs, and checks that it
// finishes with exact conservation, copies copies per packet and an
// empty pool. The watchdog turns a wedge into a failure instead of a
// suite timeout. It returns the stopped server.
func sustainedLoad(t *testing.T, cfg Config, g graph.Node, total, copies int) *Server {
	t.Helper()
	s := New(cfg)
	if err := s.AddGraph(1, g); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	col := collectOutputs(s)
	done := make(chan struct{})
	go func() {
		defer close(done)
		batch := make([]*packet.Packet, 32)
		for i := 0; i < total; {
			got := s.Pool().AllocBatch(batch[:min(len(batch), total-i)])
			if got == 0 {
				runtime.Gosched()
				continue
			}
			for j := 0; j < got; j++ {
				packet.BuildInto(batch[j], spec(byte((i+j)%4), uint16(4000+(i+j)%512), "nested"))
			}
			if acc := s.InjectBatch(batch[:got]); acc != got {
				t.Errorf("InjectBatch accepted %d of %d", acc, got)
				return
			}
			i += got
		}
		s.Stop()
	}()
	for last := uint64(0); ; {
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			st := s.Stats()
			if st.Outputs+st.Drops != last {
				last = st.Outputs + st.Drops
				continue // slow (race detector, loaded box), not stuck
			}
			t.Fatalf("no progress in 20 s: injected=%d outputs=%d drops=%d in_use=%d",
				st.Injected, st.Outputs, st.Drops, s.Pool().InUse())
		}
		break
	}
	outs := uint64(col.wait())
	st := s.Stats()
	if st.Injected != uint64(total) || st.Injected != st.Outputs+st.Drops || outs != st.Outputs {
		t.Fatalf("conservation: injected=%d outputs=%d drops=%d collected=%d, want %d in",
			st.Injected, st.Outputs, st.Drops, outs, total)
	}
	if st.Copies != uint64(copies*total) {
		t.Errorf("copies = %d, want %d (%d per packet)", st.Copies, copies*total, copies)
	}
	if leak := s.Pool().InUse(); leak != 0 {
		t.Fatalf("pool leak: %d buffers", leak)
	}
	return s
}

// TestNestedJoinSustainedLoad is the regression test for the nested-join
// wedge: under sustained burst injection an inner join whose
// continuation reaches the outer join once stopped for good after a few
// thousand packets (its merger goroutine enqueued to its own full
// queue). The inner join now completes the outer one on the goroutine
// that delivered its last tail. mergers=N runs N shards: each join then
// has N sets of entries, one per shard, and the flow hash splits the
// packets across them as the paper's merger agent splits them across
// instances by PID. The server otherwise runs a zero-value Config.
func TestNestedJoinSustainedLoad(t *testing.T) {
	total := 200_000
	if testing.Short() {
		total = 50_000
	}
	for _, mergers := range []int{1, 2} {
		t.Run(fmt.Sprintf("mergers=%d", mergers), func(t *testing.T) {
			sustainedLoad(t, Config{Shards: mergers}, nestedGraph(), total, 2)
		})
	}
}

// TestSequentialJoinsSustainedLoad is the regression test for the
// sequential-join wedge: with two parallel stages in a row — the shape
// the compiler emits for l3fwd,lb,monitor,firewall — the merger stopped
// pushing a continuation into the second stage's full ring while that
// stage's runtimes stopped pushing tails into the merger's full ring,
// for good after a few thousand packets; and with the ring out of the
// way a small pool wedged the merger waiting for a copy buffer only its
// own finalizations could free. Every stage here copies once and joins
// once; mergers=N runs N shards, as in TestNestedJoinSustainedLoad.
func TestSequentialJoinsSustainedLoad(t *testing.T) {
	total := 300_000
	if testing.Short() {
		total = 50_000
	}
	for stages := 2; stages <= 3; stages++ {
		var g graph.Seq
		for i := 0; i < stages; i++ {
			g.Items = append(g.Items, copyStage(nfn(nfa.NFMonitor, i), nfn(nfa.NFLB, i)))
		}
		for _, pool := range []int{0, 256, 64} {
			for _, mergers := range []int{1, 2} {
				t.Run(fmt.Sprintf("stages=%d/pool=%d/mergers=%d", stages, pool, mergers), func(t *testing.T) {
					sustainedLoad(t, Config{PoolSize: pool, Shards: mergers}, g, total, stages)
				})
			}
		}
	}
}

// TestNestedDropPropagation drops inside the INNER join and verifies
// the whole packet dies at both join levels with no buffer leaks.
func TestNestedDropPropagation(t *testing.T) {
	dropper := &dropEveryNth{n: 2} // drops every 2nd packet it processes
	inner := graph.Par{Branches: []graph.Node{
		graph.NF{Name: "dropnth"},
		nfn(nfa.NFMonitor, 2),
	}}
	g := graph.Seq{Items: []graph.Node{
		nfn(nfa.NFMonitor, 0),
		graph.Par{Branches: []graph.Node{
			nfn(nfa.NFMonitor, 1),
			inner,
		}},
	}}
	s := New(Config{PoolSize: 64})
	if err := s.AddGraphInstances(1, g, map[graph.NF]nf.NF{
		{Name: "dropnth"}: dropper,
	}); err != nil {
		t.Fatal(err)
	}
	outs := runTraffic(t, s, 30, func(i int) packet.BuildSpec {
		return spec(1, uint16(i), "x")
	})
	if len(outs) != 15 {
		t.Fatalf("outputs = %d, want 15 (every 2nd dropped)", len(outs))
	}
	for _, p := range outs {
		p.Free()
	}
	if st := s.Stats(); st.Drops != 15 {
		t.Errorf("drops = %d", st.Drops)
	}
	if s.Pool().Available() != 64 {
		t.Errorf("pool leak: %d/64", s.Pool().Available())
	}
}

// TestDropOfSharedAndCopiedVersions drops the packet in one branch
// while the other branch holds a copy: both buffers must return to the
// pool.
func TestDropOfSharedAndCopiedVersions(t *testing.T) {
	dropper := &dropEveryNth{n: 1} // drops everything
	g := graph.Par{
		Branches: []graph.Node{
			graph.NF{Name: "dropnth"},
			nfn(nfa.NFLB, 0),
		},
		Groups:   [][]int{{0}, {1}},
		FullCopy: []bool{false, false},
	}
	s := New(Config{PoolSize: 32})
	if err := s.AddGraphInstances(1, g, map[graph.NF]nf.NF{
		{Name: "dropnth"}: dropper,
	}); err != nil {
		t.Fatal(err)
	}
	outs := runTraffic(t, s, 20, func(i int) packet.BuildSpec {
		return spec(2, uint16(i), "y")
	})
	if len(outs) != 0 {
		t.Fatalf("outputs = %d", len(outs))
	}
	st := s.Stats()
	if st.Drops != 20 || st.Copies != 20 {
		t.Errorf("stats = %+v", st)
	}
	if s.Pool().Available() != 32 {
		t.Errorf("pool leak: %d/32 (copied versions not reclaimed on drop)", s.Pool().Available())
	}
}

// TestUnclassifiedPacketRejected covers the classifier miss path.
func TestUnclassifiedPacketRejected(t *testing.T) {
	s := New(Config{PoolSize: 8})
	if err := s.AddGraph(5, nfn(nfa.NFMonitor, 0)); err != nil {
		t.Fatal(err)
	}
	// Remove the default: only port-99 traffic classifies.
	s.Classifier().Clear()
	s.Classifier().AddRule(Match{DstPort: 99}, 5)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	pkt := s.Pool().Get()
	packet.BuildInto(pkt, spec(1, 1, "z")) // dst port 80: no match
	if s.Inject(pkt) {
		t.Error("unmatched packet accepted")
	}
	pkt.Free() // caller keeps ownership of rejected packets
	_, unmatched := s.Classifier().Stats()
	if unmatched != 1 {
		t.Errorf("unmatched = %d", unmatched)
	}
	s.Stop()
	if s.Pool().Available() != 8 {
		t.Errorf("pool leak: %d/8", s.Pool().Available())
	}
}

// randomGraph builds a random valid service graph over read-only
// monitor instances (structure is what's under test).
func randomGraph(rng *rand.Rand, depth int, next *int) graph.Node {
	mk := func() graph.Node {
		n := graph.NF{Name: nfa.NFMonitor, Instance: *next}
		*next++
		return n
	}
	if depth <= 0 || rng.Intn(3) == 0 {
		return mk()
	}
	switch rng.Intn(2) {
	case 0:
		k := 2 + rng.Intn(2)
		items := make([]graph.Node, k)
		for i := range items {
			items[i] = randomGraph(rng, depth-1, next)
		}
		return graph.Seq{Items: items}
	default:
		k := 2 + rng.Intn(2)
		branches := make([]graph.Node, k)
		for i := range branches {
			branches[i] = randomGraph(rng, depth-1, next)
		}
		return graph.Par{Branches: branches}
	}
}

// TestCompilePlanInvariantsProperty: for random valid graphs, the plan
// contains every NF exactly once, each join expects exactly its branch
// count, drop targets reference valid joins, and copy dispatches
// always precede deliveries.
func TestCompilePlanInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		next := 0
		g := randomGraph(rng, 3, &next)
		if graph.Validate(g) != nil {
			return true // generator made something structurally trivial
		}
		p, err := CompilePlan(1, g)
		if err != nil {
			// Version exhaustion is the only acceptable failure and
			// cannot happen without copy groups.
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if len(p.Nodes) != graph.NFCount(g) {
			return false
		}
		seen := map[graph.NF]bool{}
		for _, n := range p.Nodes {
			if seen[n.NF] {
				return false
			}
			seen[n.NF] = true
			if n.DropTo.Kind == ToJoin && n.DropTo.Join >= len(p.Joins) {
				return false
			}
			if n.DropTo.Kind == ToNode {
				return false // drops never target NFs
			}
		}
		for _, j := range p.Joins {
			if j.ExpectTails < 2 {
				return false
			}
			if j.DropTo.Kind == ToNode {
				return false
			}
		}
		// Copies precede deliveries in every dispatch list.
		lists := [][]Dispatch{p.Entry}
		for _, n := range p.Nodes {
			lists = append(lists, n.Next)
		}
		for _, j := range p.Joins {
			lists = append(lists, j.Next)
		}
		for _, ds := range lists {
			sawDelivery := false
			for _, d := range ds {
				if d.NewVersion == 0 && len(d.Targets) > 0 {
					sawDelivery = true
				}
				if d.NewVersion != 0 && sawDelivery {
					return false // copy after a delivery: unsafe
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomGraphsRunLive pushes traffic through random read-only
// graphs and checks conservation: outputs + drops == injected and the
// pool fully reclaims.
func TestRandomGraphsRunLive(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 10; trial++ {
		next := 0
		g := randomGraph(rng, 3, &next)
		s := New(Config{PoolSize: 128})
		if err := s.AddGraph(1, g); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		outs := runTraffic(t, s, 25, func(i int) packet.BuildSpec {
			return spec(byte(i), uint16(i), "rnd")
		})
		if len(outs) != 25 {
			t.Fatalf("trial %d (%v): outputs = %d", trial, g, len(outs))
		}
		for _, p := range outs {
			p.Free()
		}
		if s.Pool().Available() != 128 {
			t.Errorf("trial %d: pool leak %d/128 in %v", trial, s.Pool().Available(), g)
		}
	}
}
