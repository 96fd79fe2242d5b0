package dataplane

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"testing"
	"time"

	"nfp/internal/graph"
	"nfp/internal/nf"
	"nfp/internal/nfa"
	"nfp/internal/packet"
	"nfp/internal/telemetry"
)

// copyJoinPlan is a copy + join + merge-op graph whose join continues
// into an NF ring: version 1 through a monitor, a header copy through
// the LB, the LB's address rewrite carried onto the base, then a third
// NF. With the server never started, a test can play every stage.
func copyJoinPlan() *Plan {
	return &Plan{
		MID: 1, BaseVersion: 1, MaxVersion: 2,
		Entry: []Dispatch{copyTo(1, 2, toNode(1)), send(1, toNode(0))},
		Nodes: []PlanNode{
			{NF: nfn(nfa.NFMonitor, 0), Next: []Dispatch{send(1, toJoin(0, 0))}, DropTo: toJoin(0, 0)},
			{NF: nfn(nfa.NFLB, 0), Next: []Dispatch{send(2, toJoin(0, 1))}, DropTo: toJoin(0, 1)},
			{NF: nfn(nfa.NFMonitor, 1), Next: []Dispatch{send(1, toOutput)}, DropTo: toOutput},
		},
		Joins: []JoinSpec{{ExpectTails: 2, BaseVersion: 1, Versions: []uint8{1, 2}, Ops: carry(2),
			Next: []Dispatch{send(1, toNode(2))}, DropTo: toOutput}},
	}
}

// mergerRig is an unstarted server around copyJoinPlan, with the test
// goroutine standing in for the injector's consumers: the two branch NFs
// (whose tails it delivers, the second completing the join on the spot)
// and the NF behind the join.
type mergerRig struct {
	s            *Server
	sh           *shard
	pr           *planRuntime
	j            *joinRT
	pkts, copies [execChunk]*packet.Packet
	merged       [execChunk]*packet.Packet
}

func newMergerRig(tb testing.TB, cfg Config) *mergerRig {
	cfg.Burst = execChunk
	r := &mergerRig{s: New(cfg)}
	r.sh = r.s.shards[0]
	p := copyJoinPlan()
	for i := range p.Nodes {
		p.Nodes[i].ID = i
	}
	pr, err := r.s.buildRuntime(r.sh, p, nil, 1)
	if err != nil {
		tb.Fatal(err)
	}
	r.sh.plans.Store(&map[uint32]*planRuntime{1: pr})
	r.s.classifier.SetDefault(1)
	r.pr, r.j = pr, &pr.joins[0]
	if r.s.Pool().AllocBatch(r.pkts[:]) != len(r.pkts) {
		tb.Fatal("pool too small")
	}
	for i, p := range r.pkts {
		packet.BuildInto(p, shapeSpec(i))
	}
	return r
}

// branches injects the burst and takes both branches' bursts off their
// rings.
func (r *mergerRig) branches(tb testing.TB) {
	if r.s.InjectBatch(r.pkts[:]) != len(r.pkts) {
		tb.Fatal("burst rejected")
	}
	if r.pr.owner[0].rx.DequeueBatch(r.pkts[:]) != len(r.pkts) || r.pr.owner[1].rx.DequeueBatch(r.copies[:]) != len(r.copies) {
		tb.Fatal("branch bursts not delivered whole")
	}
}

// merge delivers both branches' tails to the join — the second burst
// completes every packet — and takes the merged packets off the ring
// behind the join, playing emit for them: their frames back, then their
// budget.
func (r *mergerRig) merge(tb testing.TB) {
	r.sh.joinPush(r.pr, 0, 0, r.pkts[:], false, dropProv{}, 0)
	if open := r.j.open(); open != execChunk {
		tb.Fatalf("%d entries open after the first branch, want %d", open, execChunk)
	}
	r.sh.joinPush(r.pr, 0, 1, r.copies[:], false, dropProv{}, 0)
	if got := r.pr.owner[2].rx.DequeueBatch(r.merged[:]); got != execChunk {
		tb.Fatalf("join continued with a burst of %d, want all %d as one", got, execChunk)
	}
	r.pr.frames.put(r.merged[:])
	r.sh.settle(r.pr, execChunk)
}

// TestMergerAcceptAllocs: in steady state a join accepts a burst — frames
// taken and given back, entries counted in, merge ops, the freed copies,
// the burst sent on — without allocating (the sibling of
// TestExecBurstFanoutAllocs).
func TestMergerAcceptAllocs(t *testing.T) {
	r := newMergerRig(t, Config{PoolSize: 256, RingSize: 64})
	allocs := testing.AllocsPerRun(50, func() {
		r.branches(t)
		r.merge(t)
	})
	if allocs != 0 {
		t.Errorf("accepting one burst allocates %.1f times, want 0", allocs)
	}
	if got := r.j.merged.Value(); got != 51*execChunk {
		t.Errorf("merged = %d, want %d", got, 51*execChunk)
	}
	if hw := r.j.atHW.Value(); hw != execChunk {
		t.Errorf("nfp_merger_at_high_water = %d, want the %d entries of one burst", hw, execChunk)
	}
	if open := r.j.open(); open != 0 || r.j.atSize.Value() != 0 {
		t.Errorf("%d entries open (gauge %d) after every packet merged", open, r.j.atSize.Value())
	}
	r.s.Pool().FreeBatch(r.pkts[:])
	if leak := r.s.Pool().InUse(); leak != 0 {
		t.Errorf("%d buffers leaked: the spent copies must go back", leak)
	}
}

// TestMergerBacklogLeavesInFullBursts: one delivery can complete more
// packets than a burst holds — every tail the last of an entry born
// earlier, as when a stalled branch lets go of its backlog. They still
// leave in completion order as bursts of at most Burst, each behind its
// own spent copies, out of stack scratch: no allocation. A merged burst
// reads the clock once for its merge spans, so with every packet sampled
// the spans' end stamps tell the bursts apart.
func TestMergerBacklogLeavesInFullBursts(t *testing.T) {
	const burst = 8
	for _, traced := range []bool{false, true} {
		cfg := Config{PoolSize: 512, RingSize: 64}
		if traced {
			cfg.TraceSampleRate, cfg.TraceCapacity = 1, 1<<14
		}
		r := newMergerRig(t, cfg)
		r.s.cfg.Burst = burst
		allocs := testing.AllocsPerRun(20, func() {
			r.branches(t)
			r.merge(t) // the second branch's whole burst lands in one delivery
			for i, pkt := range r.merged {
				if pkt.Meta.PID != r.pkts[i].Meta.PID {
					t.Fatalf("merged packet %d is pid %d, completion order has pid %d", i, pkt.Meta.PID, r.pkts[i].Meta.PID)
				}
			}
		})
		if !traced && allocs != 0 {
			t.Errorf("a delivery completing %d packets allocates %.1f times, want 0", execChunk, allocs)
		}
		if traced {
			ends := map[int64]int{}
			for _, ev := range r.s.Tracer().Events() {
				if ev.Stage == telemetry.StageMerge {
					ends[ev.TS]++
				}
			}
			if len(ends) < 21*execChunk/burst {
				t.Errorf("%d merged bursts for %d packets, want at least %d of at most %d", len(ends), 21*execChunk, 21*execChunk/burst, burst)
			}
			for ts, n := range ends {
				if n > burst {
					t.Errorf("%d packets merged as one burst (merge spans ending at %d), over Burst %d", n, ts, burst)
				}
			}
		}
		r.s.Pool().FreeBatch(r.pkts[:])
		if leak := r.s.Pool().InUse(); leak != 0 || r.j.open() != 0 {
			t.Errorf("%d buffers leaked, %d entries left open", leak, r.j.open())
		}
	}
}

// BenchmarkMergerAccept measures a join alone: 64 tails in, 32 merged
// packets (two address merge ops each) out as one burst. The figure
// beside the paper's 10.7 Mpps per merger instance (§6.3.3) is merged/s,
// over the time spent delivering the tails; ns/op also covers the branch
// stand-ins that feed it.
func BenchmarkMergerAccept(b *testing.B) {
	r := newMergerRig(b, Config{PoolSize: 256, RingSize: 64})
	var inJoin time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += execChunk {
		r.branches(b)
		t0 := time.Now()
		r.merge(b)
		inJoin += time.Since(t0)
	}
	b.ReportMetric(float64(b.N)/inJoin.Seconds(), "merged/s")
}

// TestJoinCompletesWhereLastTailLands: a join has no goroutine of its
// own, so the branch runtime that delivers a packet's last tail
// completes it. Two branch goroutines race to complete the same packets
// (a copying stage whose branches cost the same), and an inner join
// completes the outer one inside its own continuation (nestedGraph); at
// Burst 1 every tail completes its join on its own. At either burst and
// shard count nothing is lost, every packet merges once at every join,
// every entry ends closed and every buffer is back.
func TestJoinCompletesWhereLastTailLands(t *testing.T) {
	total := 20_000
	if testing.Short() {
		total = 5_000
	}
	for _, tc := range []struct {
		name          string
		g             graph.Node
		copies, joins int
	}{
		{"racing branches", copyStage(nfn(nfa.NFMonitor, 0), nfn(nfa.NFMonitor, 1)), 1, 1},
		{"nested", nestedGraph(), 2, 2},
	} {
		for _, burst := range []int{1, 32} {
			for _, shards := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/burst=%d/shards=%d", tc.name, burst, shards), func(t *testing.T) {
					s := sustainedLoad(t, Config{Burst: burst, Shards: shards}, tc.g, total, tc.copies)
					merged := make([]uint64, tc.joins)
					var load uint64
					for i, sh := range s.shards {
						pr := (*sh.plans.Load())[1]
						if len(pr.joins) != tc.joins {
							t.Fatalf("shard %d runs %d joins, want %d", i, len(pr.joins), tc.joins)
						}
						for j := range pr.joins {
							if open := pr.joins[j].open(); open != 0 {
								t.Errorf("shard %d join %d: %d entries left open", i, j, open)
							}
							merged[j] += pr.joins[j].merged.Value()
						}
						load += s.Stats().MergerLoad[i]
					}
					for j, m := range merged {
						if m != uint64(total) {
							t.Errorf("join %d merged %d packets, want %d", j, m, total)
						}
					}
					if want := uint64(2 * tc.joins * total); load != want {
						t.Errorf("joins took %d tails, want %d", load, want)
					}
				})
			}
		}
	}
}

// TestMergerFreesCopiesBeforeBudget: a packet's copy budget comes back
// only once its copies are in the pool again. The sources hold every
// buffer but the copy reserve and recycle what comes out, so the reserve
// is all the copy path ever has: the moment emit settles a merged
// packet's budget the injector waiting at admission takes it and
// allocates copies under it — which must be there (a short grant is an
// invariant panic naming the budget), round after round.
func TestMergerFreesCopiesBeforeBudget(t *testing.T) {
	const poolSize, burst, rounds = 64, 32, 4000
	const reserve = poolSize / copyReserveDiv
	s := New(Config{PoolSize: poolSize, Burst: burst})
	g := graph.Par{
		Branches: []graph.Node{nfn(nfa.NFMonitor, 0), nfn(nfa.NFLB, 0)},
		Groups:   [][]int{{0}, {1}},
		FullCopy: []bool{false, false},
		Ops:      carry(2),
	}
	if err := s.AddGraph(1, g); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	var pkts [poolSize - reserve]*packet.Packet
	if s.Pool().AllocBatch(pkts[:]) != len(pkts) || s.Pool().Available() != reserve {
		t.Fatalf("sources hold %d buffers and leave %d, want all but the reserve of %d", len(pkts), s.Pool().Available(), reserve)
	}
	back := make(chan *packet.Packet, len(pkts))
	go func() {
		for p := range s.Output() {
			back <- p
		}
		close(back)
	}()
	for round := 0; round < rounds; round++ {
		for i, p := range pkts {
			packet.BuildInto(p, shapeSpec(round+i))
		}
		if n := s.InjectBatch(pkts[:]); n != len(pkts) {
			t.Fatalf("round %d: %d of %d accepted", round, n, len(pkts))
		}
		for i := range pkts {
			pkts[i] = <-back
		}
	}
	s.Stop()
	st := s.Stats()
	if want := uint64(rounds * len(pkts)); st.Outputs != want || st.Drops != 0 || st.Copies != want {
		t.Errorf("outputs=%d drops=%d copies=%d, want %d, 0, %d", st.Outputs, st.Drops, st.Copies, want, want)
	}
	s.Pool().FreeBatch(pkts[:])
	if leak := s.Pool().InUse(); leak != 0 {
		t.Errorf("pool leak: %d buffers", leak)
	}
}

// TestMergerEmitsInCompletionOrder delivers to two MIDs' joins an
// interleaving of their tails, drops and passes, cut into bursts at
// random, and holds the order packets leave the joins in to the order
// their last tails arrived in — what finalizing each packet on the spot
// gives. Bases that share a verdict travel as one burst; a change of
// verdict closes it first.
func TestMergerEmitsInCompletionOrder(t *testing.T) {
	const n = 300
	s := New(Config{PoolSize: 1024, Burst: 8, TraceSampleRate: 1, TraceCapacity: 1 << 14})
	sh := s.shards[0]
	type tail struct {
		pkt *packet.Packet
		pr  *planRuntime
		k   int
		v   verdict
	}
	plans := map[uint32]*planRuntime{}
	for mid := uint32(1); mid <= 2; mid++ {
		p := execShapes(false)["multi-target no-copy group"]
		p.MID = mid
		for i := range p.Nodes {
			p.Nodes[i].ID = i
		}
		pr, err := s.buildRuntime(sh, p, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		plans[mid] = pr
	}
	sh.plans.Store(&plans)

	// Two tails per packet, the second a random distance behind the first;
	// every fifth packet has one branch report a drop.
	rng := rand.New(rand.NewSource(7))
	var pos []float64 // where each item falls in the feed
	var items []tail
	dropped := map[uint64]bool{}
	for i := 0; i < n; i++ {
		mid := uint32(1 + rng.Intn(2))
		pr, k := sh.acquire(mid, 1)
		if pr != plans[mid] || k != 1 {
			t.Fatalf("packet %d not admitted", i)
		}
		pkt := buildInto(t, s, shapeSpec(i))
		pkt.Meta = packet.Meta{MID: mid, PID: uint64(i + 1), Version: 1}
		pr.frames.take([]*packet.Packet{pkt}) // as injectBurst does
		for k := 0; k < 2; k++ {
			it := tail{pkt: pkt, pr: pr, k: k}
			if k == 1 && i%5 == 0 {
				it.v = verdict{true, dropProv{stage: telemetry.StageNF, node: 1}}
				dropped[pkt.Meta.PID] = true
			}
			pos = append(pos, float64(i)+float64(k)*rng.Float64()*12)
			items = append(items, it)
		}
	}
	order := rng.Perm(len(items))
	sort.SliceStable(order, func(a, b int) bool { return pos[order[a]] < pos[order[b]] })
	var feed []tail
	var want []uint64 // PIDs by the arrival of their second tail
	seen := map[uint64]bool{}
	for _, idx := range order {
		it := items[idx]
		feed = append(feed, it)
		if pid := it.pkt.Meta.PID; seen[pid] {
			want = append(want, pid)
		} else {
			seen[pid] = true
		}
	}

	outputs := 0
	for len(feed) > 0 {
		// One delivery per run of the burst that shares a join, branch and
		// verdict.
		k := min(len(feed), 1+rng.Intn(2*s.cfg.Burst))
		for i := 0; i < k; {
			var pkts []*packet.Packet
			it := feed[i]
			for ; i < k && feed[i].pr == it.pr && feed[i].k == it.k && feed[i].v == it.v; i++ {
				pkts = append(pkts, feed[i].pkt)
			}
			sh.joinPush(it.pr, 0, it.k, pkts, it.v.dropped, it.v.prov, 0)
		}
		feed = feed[k:]
		for drained := false; !drained; {
			select {
			case pkt := <-s.Output():
				outputs++
				pkt.Free()
			default:
				drained = true
			}
		}
	}

	var got []uint64
	for _, ev := range s.Tracer().Events() {
		switch {
		case ev.Stage == telemetry.StageMerge:
			if dropped[ev.PID] {
				t.Errorf("pid %d dropped by a branch yet merged", ev.PID)
			}
			got = append(got, ev.PID)
		case ev.Stage == telemetry.StageDrop:
			got = append(got, ev.PID)
		}
	}
	if len(got) != n || len(want) != n {
		t.Fatalf("%d packets left the joins, %d completed, want %d", len(got), len(want), n)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("emission %d is pid %d, completion order has pid %d", i, got[i], want[i])
		}
	}
	st := s.Stats()
	open := plans[1].joins[0].open() + plans[2].joins[0].open()
	if outputs != n-len(dropped) || st.Drops != uint64(len(dropped)) || open != 0 {
		t.Errorf("outputs=%d drops=%d open entries=%d, want %d, %d, 0", outputs, st.Drops, open, n-len(dropped), len(dropped))
	}
	if held := budget(sh.held.Load()); held != 0 {
		t.Errorf("budget not given back: %d copies, %d tails held", held.copies(), held.tails())
	}
	if leak := s.Pool().InUse(); leak != 0 {
		t.Errorf("pool leak: %d buffers", leak)
	}
}

// TestMergeOpModifyKeepsLayout: a same-length modify of a field no
// offset depends on leaves the bytes, flow key and layout that the old
// route — invalidate, parse again, re-sum the whole IP header — left, on
// TCP and UDP packets with and without an AH header; the whole-header
// modify, which can change the layout, still parses again.
func TestMergeOpModifyKeepsLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vpn, err := nf.NewVPN(nil)
	if err != nil {
		t.Fatal(err)
	}
	random := func() *packet.Packet {
		p := packet.New(make([]byte, 512))
		sp := packet.BuildSpec{
			SrcIP:   netip.AddrFrom4([4]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}),
			DstIP:   netip.AddrFrom4([4]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}),
			Proto:   []uint8{packet.ProtoTCP, packet.ProtoUDP}[rng.Intn(2)],
			SrcPort: uint16(rng.Intn(1 << 16)), DstPort: uint16(rng.Intn(1 << 16)),
			TTL:     uint8(1 + rng.Intn(255)),
			Payload: make([]byte, rng.Intn(200)),
		}
		rng.Read(sp.Payload)
		packet.BuildInto(p, sp)
		return p
	}
	clone := func(p *packet.Packet) *packet.Packet {
		c := packet.New(make([]byte, 512))
		p.CloneInto(c)
		return c
	}
	fields := []packet.Field{packet.FieldSrcIP, packet.FieldDstIP, packet.FieldTTL,
		packet.FieldSrcPort, packet.FieldDstPort, packet.FieldIPHeader}
	for round := 0; round < 400; round++ {
		base, src := random(), random()
		if round%2 == 1 {
			if vpn.Process(base) != nf.Pass || vpn.Process(src) != nf.Pass {
				t.Fatal("vpn dropped")
			}
		}
		f := fields[round%len(fields)]
		if f == packet.FieldIPHeader {
			// A copy's IP header: the base's own, rewritten by an NF.
			src = clone(base)
			src.SetSrcIP(netip.AddrFrom4([4]byte{9, 9, byte(round), 9}))
			packet.HeaderOnlyCopy(src, src, 2)
		}
		if _, err := base.FlowKey(); err != nil {
			t.Fatal(err)
		}
		want := clone(base)
		r, _ := want.FieldRange(f)
		copy(want.Buffer()[r.Off:r.Off+r.Len], src.FieldBytes(f))
		want.Invalidate()
		if err := want.Parse(); err != nil {
			t.Fatal(err)
		}
		want.SetTotalLen(uint16(want.Len() - packet.EthHeaderLen)) // the full re-sum

		var versions [packet.MaxVersion + 1]*packet.Packet
		versions[2] = src
		op := graph.MergeOp{Kind: graph.OpModify, SrcVersion: 2, SrcField: f, DstField: f}
		if err := applyMergeOp(base, &op, &versions); err != nil {
			t.Fatalf("round %d field %v: %v", round, f, err)
		}
		if !bytes.Equal(base.Bytes(), want.Bytes()) {
			t.Fatalf("round %d field %v: bytes differ from invalidate + parse + re-sum\n got %x\nwant %x",
				round, f, base.Bytes()[:64], want.Bytes()[:64])
		}
		gotKey, _ := base.FlowKey()
		wantKey, _ := want.FlowKey()
		gotLay, _ := base.Layout()
		wantLay, _ := want.Layout()
		if gotKey != wantKey || gotLay != wantLay {
			t.Fatalf("round %d field %v: cached key %v layout %+v, a fresh parse gives %v %+v",
				round, f, gotKey, gotLay, wantKey, wantLay)
		}
	}
}

// TestShardReleaseMixedOrigin: what a shard frees in one batch need not
// all be its partition's — a source allocates from any partition, a nil
// carrier from none. Each packet goes back to its own owner; a burst
// that is all the shard's goes back under one lock.
func TestShardReleaseMixedOrigin(t *testing.T) {
	s := New(Config{PoolSize: 64, Shards: 2})
	sh0, sh1 := s.shards[0], s.shards[1]
	var own, foreign [4]*packet.Packet
	if sh0.pool.AllocBatchReserved(own[:]) != 4 || sh1.pool.AllocBatchReserved(foreign[:]) != 4 {
		t.Fatal("partitions too small")
	}
	nilCarrier := packet.NewNil(packet.Meta{PID: 1})
	sh0.release([]*packet.Packet{own[0], foreign[0], nilCarrier, packet.New(make([]byte, 64)), own[1], foreign[1]})
	if a, b := sh0.pool.InUse(), sh1.pool.InUse(); a != 2 || b != 2 {
		t.Fatalf("in use after a mixed burst: %d and %d, want 2 and 2 (each packet back with its own partition)", a, b)
	}
	sh0.release(own[2:])
	sh1.release(foreign[2:])
	if a, b := sh0.pool.Available(), sh1.pool.Available(); a != 32 || b != 32 || s.Pool().InUse() != 0 {
		t.Errorf("available = %d and %d, in use %d, want 32, 32 and 0", a, b, s.Pool().InUse())
	}
}
