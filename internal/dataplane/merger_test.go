package dataplane

import (
	"bytes"
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
			{NF: nfn(nfa.NFMonitor, 0), Next: []Dispatch{send(1, toJoin(0))}, DropTo: toJoin(0)},
			{NF: nfn(nfa.NFLB, 0), Next: []Dispatch{send(2, toJoin(0))}, DropTo: toJoin(0)},
			{NF: nfn(nfa.NFMonitor, 1), Next: []Dispatch{send(1, toOutput)}, DropTo: toOutput},
		},
		Joins: []JoinSpec{{ExpectTails: 2, BaseVersion: 1, Versions: []uint8{1, 2}, Ops: carry(2),
			Next: []Dispatch{send(1, toNode(2))}, DropTo: toOutput}},
	}
}

// mergerRig is an unstarted one-merger server around copyJoinPlan, with
// the test goroutine standing in for the injector's consumers: the two
// branch NFs (whose tails it reports) and the NF behind the join.
type mergerRig struct {
	s            *Server
	sh           *shard
	pr           *planRuntime
	m            *merger
	pkts, copies [execChunk]*packet.Packet
	merged       [execChunk]*packet.Packet
}

func newMergerRig(tb testing.TB, cfg Config) *mergerRig {
	cfg.Mergers, cfg.Burst = 1, execChunk
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
	r.pr, r.m = pr, r.sh.mergers[0]
	if r.s.Pool().AllocBatch(r.pkts[:]) != len(r.pkts) {
		tb.Fatal("pool too small")
	}
	for i, p := range r.pkts {
		packet.BuildInto(p, shapeSpec(i))
	}
	return r
}

// branches injects the burst and reports both branches' tails to the
// merger's ring, leaving 2×execChunk items for one drain.
func (r *mergerRig) branches(tb testing.TB) {
	if r.s.InjectBatch(r.pkts[:]) != len(r.pkts) {
		tb.Fatal("burst rejected")
	}
	if r.pr.owner[0].rx.DequeueBatch(r.pkts[:]) != len(r.pkts) || r.pr.owner[1].rx.DequeueBatch(r.copies[:]) != len(r.copies) {
		tb.Fatal("branch bursts not delivered whole")
	}
	r.sh.joinPush(r.pr, 0, r.pkts[:], false, dropProv{}, 0)
	r.sh.joinPush(r.pr, 0, r.copies[:], false, dropProv{}, 0)
}

// merge drains the merger's ring once, accepts the burst, and takes the
// merged packets off the ring behind the join, playing emit for them.
func (r *mergerRig) merge(tb testing.TB) {
	n := r.m.rx.DequeueBatch(r.m.batch)
	if n != 2*execChunk {
		tb.Fatalf("drained %d tails in one visit, want %d: the drain scratch must cover a full output burst", n, 2*execChunk)
	}
	r.m.accept(r.m.batch[:n])
	if got := r.pr.owner[2].rx.DequeueBatch(r.merged[:]); got != execChunk {
		tb.Fatalf("join continued with a burst of %d, want all %d as one", got, execChunk)
	}
	r.sh.settle(r.pr, execChunk)
}

// TestMergerAcceptAllocs: in steady state a merger accepts a burst —
// table inserts and deletes, merge ops, the freed copies, the burst sent
// on — without allocating (the sibling of TestExecBurstFanoutAllocs).
func TestMergerAcceptAllocs(t *testing.T) {
	r := newMergerRig(t, Config{PoolSize: 256, RingSize: 64})
	allocs := testing.AllocsPerRun(50, func() {
		r.branches(t)
		r.merge(t)
	})
	if allocs != 0 {
		t.Errorf("accepting one burst allocates %.1f times, want 0", allocs)
	}
	if got := r.m.merged.Value(); got != 51*execChunk {
		t.Errorf("merged = %d, want %d", got, 51*execChunk)
	}
	if hw := r.m.atHW.Value(); hw != execChunk {
		t.Errorf("nfp_merger_at_high_water = %d, want the %d entries of one burst", hw, execChunk)
	}
	if r.m.outKey != (burstKey{}) || len(r.m.out) != 0 || len(r.m.spent) != 0 {
		t.Errorf("an idle merger keeps key %+v, %d bases, %d copies: it would pin a retired generation", r.m.outKey, len(r.m.out), len(r.m.spent))
	}
	r.s.Pool().FreeBatch(r.pkts[:])
	if leak := r.s.Pool().InUse(); leak != 0 {
		t.Errorf("%d buffers leaked: the spent copies must go back", leak)
	}
}

// TestMergerBacklogLeavesInFullBursts: one drain can complete more than a
// Burst of packets — every item the last tail of an entry born earlier,
// as when a stalled branch lets go. They still leave as bursts of at most
// Burst, each behind its own spent copies, out of the scratch the merger
// was built with: no allocation, no regrown slice.
func TestMergerBacklogLeavesInFullBursts(t *testing.T) {
	r := newMergerRig(t, Config{PoolSize: 512, RingSize: 64})
	var more, moreCopies [execChunk]*packet.Packet
	if r.s.Pool().AllocBatch(more[:]) != len(more) {
		t.Fatal("pool too small")
	}
	for i, p := range more {
		packet.BuildInto(p, shapeSpec(execChunk+i))
	}
	sets := [2]struct{ pkts, copies []*packet.Packet }{{r.pkts[:], r.copies[:]}, {more[:], moreCopies[:]}}
	accept := func(want int) {
		n := r.m.rx.DequeueBatch(r.m.batch)
		if n != 2*execChunk {
			t.Fatalf("drained %d tails, want %d", n, 2*execChunk)
		}
		r.m.accept(r.m.batch[:n])
		if got := r.m.at.live; got != want {
			t.Fatalf("%d entries live after the drain, want %d", got, want)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, set := range sets {
			if r.s.InjectBatch(set.pkts) != execChunk {
				t.Fatal("burst rejected")
			}
			if r.pr.owner[0].rx.DequeueBatch(set.pkts) != execChunk || r.pr.owner[1].rx.DequeueBatch(set.copies) != execChunk {
				t.Fatal("branch bursts not delivered whole")
			}
			r.sh.joinPush(r.pr, 0, set.pkts, false, dropProv{}, 0)
		}
		accept(2 * execChunk) // one tail each: nothing completes
		for _, set := range sets {
			r.sh.joinPush(r.pr, 0, set.copies, false, dropProv{}, 0)
		}
		accept(0) // every item completes a packet: 2×Burst in one drain
		for range sets {
			if got := r.pr.owner[2].rx.DequeueBatch(r.merged[:]); got != execChunk {
				t.Fatalf("%d packets behind the join, want %d", got, execChunk)
			}
		}
		r.sh.settle(r.pr, 2*execChunk)
	})
	if allocs != 0 {
		t.Errorf("a drain completing 2×Burst packets allocates %.1f times, want 0", allocs)
	}
	if cap(r.m.out) != execChunk || cap(r.m.spent) != execChunk*packet.MaxVersion {
		t.Errorf("scratch regrown to %d bases and %d copies: a burst over Burst went out", cap(r.m.out), cap(r.m.spent))
	}
	r.s.Pool().FreeBatch(r.pkts[:])
	r.s.Pool().FreeBatch(more[:])
	if leak := r.s.Pool().InUse(); leak != 0 {
		t.Errorf("%d buffers leaked", leak)
	}
}

// BenchmarkMergerAccept measures the merger alone: 64 tails in, 32
// merged packets (two address merge ops each) out as one burst. The
// figure beside the paper's 10.7 Mpps per merger instance (§6.3.3) is
// merged/s, over the time spent in the merger's own drain and accept;
// ns/op also covers the branch stand-ins that feed it.
func BenchmarkMergerAccept(b *testing.B) {
	r := newMergerRig(b, Config{PoolSize: 256, RingSize: 64})
	var inMerger time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += execChunk {
		r.branches(b)
		t0 := time.Now()
		r.merge(b)
		inMerger += time.Since(t0)
	}
	b.ReportMetric(float64(b.N)/inMerger.Seconds(), "merged/s")
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
	s := New(Config{PoolSize: poolSize, Burst: burst, Mergers: 1})
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

// TestMergerEmitsInCompletionOrder feeds one merger an interleaving of
// two MIDs, drops and passes, cut into bursts at random, and holds the
// order packets leave the merger in to the order their last tails
// arrived in — what finalizing each packet on the spot gave. Bases that
// share a header travel as one burst; a change of MID or verdict closes
// it first (flush-on-key-change).
func TestMergerEmitsInCompletionOrder(t *testing.T) {
	const n = 300
	s := New(Config{PoolSize: 1024, Mergers: 1, Burst: 8, TraceSampleRate: 1, TraceCapacity: 1 << 14})
	sh, m := s.shards[0], s.shards[0].mergers[0]
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
	var items []mergeItem
	dropped := map[uint64]bool{}
	for i := 0; i < n; i++ {
		mid := uint32(1 + rng.Intn(2))
		pr, k := sh.acquire(mid, 1)
		if pr != plans[mid] || k != 1 {
			t.Fatalf("packet %d not admitted", i)
		}
		pkt := buildInto(t, s, shapeSpec(i))
		pkt.Meta = packet.Meta{MID: mid, PID: uint64(i + 1), Version: 1}
		for tail := 0; tail < 2; tail++ {
			it := mergeItem{pkt: pkt, pr: pr}
			if tail == 1 && i%5 == 0 {
				it.dropped, it.prov = true, dropProv{stage: telemetry.StageNF, node: 1}
				dropped[pkt.Meta.PID] = true
			}
			pos = append(pos, float64(i)+float64(tail)*rng.Float64()*12)
			items = append(items, it)
		}
	}
	order := rng.Perm(len(items))
	sort.SliceStable(order, func(a, b int) bool { return pos[order[a]] < pos[order[b]] })
	var feed []mergeItem
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
		k := min(len(feed), 1+rng.Intn(2*s.cfg.Burst))
		m.accept(feed[:k])
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
		t.Fatalf("%d packets left the merger, %d completed, want %d", len(got), len(want), n)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("emission %d is pid %d, completion order has pid %d", i, got[i], want[i])
		}
	}
	st := s.Stats()
	if outputs != n-len(dropped) || st.Drops != uint64(len(dropped)) || m.at.live != 0 {
		t.Errorf("outputs=%d drops=%d entries=%d, want %d, %d, 0", outputs, st.Drops, m.at.live, n-len(dropped), len(dropped))
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
