package dataplane

import (
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nfp/internal/graph"
	"nfp/internal/nfa"
	"nfp/internal/packet"
	"nfp/internal/telemetry"
	"nfp/internal/telemetry/flightrec"
)

// open counts the join's open entries: those some but not all of a
// packet's tails have reached.
func (jr *joinRT) open() int {
	n := 0
	for i := range jr.entries {
		if jr.entries[i].count.Load() != 0 {
			n++
		}
	}
	return n
}

// TestJoinFramesExhaustedPanics: a plan has exactly the frames admission
// lets its packets hold, each handed to one packet at a time; one more is
// a bug in that arithmetic and says so, naming the bound, rather than
// hand two packets one frame.
func TestJoinFramesExhaustedPanics(t *testing.T) {
	const bound = 8
	fs := newFrames(bound)
	pkts := make([]*packet.Packet, bound)
	for i := range pkts {
		pkts[i] = packet.New(nil)
	}
	fs.take(pkts[:3])
	fs.take(pkts[3:])
	seen := map[uint16]bool{}
	for _, p := range pkts {
		if p.Frame >= bound || seen[p.Frame] {
			t.Fatalf("frame %d handed out twice or out of range (bound %d)", p.Frame, bound)
		}
		seen[p.Frame] = true
	}
	fs.put(pkts[5:6])
	if fs.take(pkts[5:6]); !seen[pkts[5].Frame] {
		t.Fatalf("frame %d given back came back as %d", pkts[5].Frame, pkts[5].Frame)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "join frames exhausted") || !strings.Contains(msg, "0 free of the 8") || !strings.Contains(msg, "admission budget") {
			t.Errorf("exhaustion panic = %q, want the bound and the budget named", msg)
		}
	}()
	fs.take([]*packet.Packet{packet.New(nil)})
	t.Error("a ninth frame was handed out")
}

// TestJoinTailsRace: two goroutines, standing in for a join's two
// branches, deliver the tails of thousands of packets at once, in random
// bursts, with drops on either branch or both — over a no-copy group,
// where both hand in the same *Packet, and a copy group. Every packet
// finalizes exactly once; where both branches drop, the provenance of the
// drop that arrived first wins (the branch that goes second waits until
// the other has delivered that packet); every tail closes one merge-wait
// span; and frames, entries, budget and pool all come back.
func TestJoinTailsRace(t *testing.T) {
	copyGroup := copyJoinPlan()
	copyGroup.Nodes = copyGroup.Nodes[:2]
	copyGroup.Joins[0].Next = []Dispatch{send(1, toOutput)}
	for name, tc := range map[string]struct {
		p    *Plan
		vers [2]uint8 // the version each branch hands in
	}{
		"no-copy group": {execShapes(false)["multi-target no-copy group"], [2]uint8{1, 1}},
		"copy group":    {copyGroup, [2]uint8{1, 2}},
	} {
		t.Run(name, func(t *testing.T) {
			raceJoin(t, tc.p, tc.vers)
		})
	}
}

func raceJoin(t *testing.T, p *Plan, vers [2]uint8) {
	rounds := 24
	if testing.Short() {
		rounds = 6
	}
	s := New(Config{PoolSize: 4096, RingSize: 512, Burst: 8, TraceSampleRate: 1, TraceCapacity: 1 << 16})
	pr, sh := installPlan(t, s, p), s.shards[0]
	jr := &pr.joins[0]
	rng := rand.New(rand.NewSource(5))

	// Per packet: which branches drop it, and, when both do, which one
	// delivers first (the other waits).
	const (
		dropsNone = iota
		drops0
		drops1
		both0First
		both1First
	)
	var wantDrops [2]uint64
	wantOut, total := 0, 0
	seen := map[uint64]int{}
	for round := 0; round < rounds; round++ {
		n := 1 + rng.Intn(256)
		pkts := make([]*packet.Packet, n)
		for i := range pkts {
			pkts[i] = buildInto(t, s, shapeSpec(total+i))
		}
		if s.InjectBatch(pkts) != n {
			t.Fatal("burst rejected")
		}
		var tails [2][]*packet.Packet
		for k := range tails {
			tails[k] = make([]*packet.Packet, n)
			if got := pr.owner[k].rx.DequeueBatch(tails[k]); got != n {
				t.Fatalf("branch %d ring holds %d of %d", k, got, n)
			}
		}
		fate := make([]int, n)
		for i := range fate {
			switch fate[i] = rng.Intn(7); fate[i] {
			case drops0, both0First:
				wantDrops[0]++
			case drops1, both1First:
				wantDrops[1]++
			case dropsNone, 5, 6:
				fate[i] = dropsNone
				wantOut++
			}
		}
		total += n

		var progress [2]atomic.Int64 // branch k has delivered tails[k][:progress[k]]
		var start, done sync.WaitGroup
		start.Add(1)
		for k := 0; k < 2; k++ {
			done.Add(1)
			go func(k int, seed int64) {
				defer done.Done()
				rng := rand.New(rand.NewSource(seed))
				drops := func(i int) bool {
					f := fate[i]
					return f == both0First || f == both1First || f == drops0+k
				}
				waits := func(i int) bool { return fate[i] == both0First+1-k }
				prov := dropProv{cause: flightrec.CauseNFVerdict, stage: telemetry.StageNF, node: int32(k)}
				start.Wait()
				for i := 0; i < n; {
					if waits(i) {
						for progress[1-k].Load() <= int64(i) {
							runtime.Gosched()
						}
					}
					end, size := i+1, 1+rng.Intn(16)
					for end < n && end-i < size && drops(end) == drops(i) && !waits(end) {
						end++
					}
					sh.joinPush(pr, 0, k, tails[k][i:end], drops(i), prov, time.Now().UnixNano())
					progress[k].Store(int64(end))
					i = end
				}
			}(k, rng.Int63())
		}
		start.Done()
		done.Wait()

		for drained := false; !drained; {
			select {
			case pkt := <-s.Output():
				seen[pkt.Meta.PID]++
				pkt.Free()
			default:
				drained = true
			}
		}
	}

	st := s.Stats()
	if merged, dropped := jr.merged.Value(), jr.drops.Value(); merged+dropped != uint64(total) || merged != uint64(wantOut) {
		t.Errorf("join merged %d and dropped %d of %d packets, want %d merged", merged, dropped, total, wantOut)
	}
	if len(seen) != wantOut || st.Outputs != uint64(wantOut) || st.Drops != wantDrops[0]+wantDrops[1] {
		t.Errorf("%d distinct outputs (%d counted), %d drops, want %d and %d", len(seen), st.Outputs, st.Drops, wantOut, wantDrops[0]+wantDrops[1])
	}
	for pid, n := range seen {
		if n != 1 {
			t.Errorf("pid %d left the join %d times", pid, n)
		}
	}
	for k, want := range wantDrops {
		var got uint64
		if c := pr.nodes[k].drops[flightrec.CauseNFVerdict].Load(); c != nil {
			got = c.Value()
		}
		if got != want {
			t.Errorf("%d drops charged to branch %d, want %d: the first drop to arrive must win", got, k, want)
		}
	}

	type pidSpans struct {
		finals int
		waits  [packet.MaxVersion + 1]int
	}
	spans := map[uint64]*pidSpans{}
	for _, ev := range s.Tracer().Events() {
		ps := spans[ev.PID]
		if ps == nil {
			ps = &pidSpans{}
			spans[ev.PID] = ps
		}
		switch ev.Stage {
		case telemetry.StageMerge, telemetry.StageDrop:
			ps.finals++
		case telemetry.StageMergeWait:
			ps.waits[ev.Ver]++
		}
	}
	var want [packet.MaxVersion + 1]int
	want[vers[0]]++
	want[vers[1]]++
	if len(spans) != total {
		t.Fatalf("spans for %d packets, want %d", len(spans), total)
	}
	for pid, ps := range spans {
		if ps.finals != 1 || ps.waits != want {
			t.Fatalf("pid %d: finalized %d times, merge-wait spans by version %v, want once and %v", pid, ps.finals, ps.waits, want)
		}
	}

	if open := jr.open(); open != 0 || jr.atSize.Value() != 0 || len(pr.frames.free) != cap(pr.frames.free) {
		t.Errorf("%d entries open (gauge %d), %d of %d frames free", open, jr.atSize.Value(), len(pr.frames.free), cap(pr.frames.free))
	}
	if held := budget(sh.held.Load()); held != 0 {
		t.Errorf("budget not given back: %d copies, %d tails held", held.copies(), held.tails())
	}
	if leak := s.Pool().InUse(); leak != 0 {
		t.Errorf("pool leak: %d buffers", leak)
	}
}

// TestMergeLatencySampledOnly: a join records nfp_merger_merge_latency_ns
// for the packets the tracer samples and no others, as the end-to-end
// latency is — none with sampling off, one per completed packet when
// every packet is sampled.
func TestMergeLatencySampledOnly(t *testing.T) {
	const bursts, burst = 40, 16
	for _, rate := range []int{0, 1} {
		s := New(Config{PoolSize: 256, Burst: burst, TraceSampleRate: rate, TraceCapacity: 1 << 14})
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
		pkts := make([]*packet.Packet, burst)
		for b := 0; b < bursts; b++ {
			for i := range pkts {
				pkts[i] = buildInto(t, s, shapeSpec(b*burst+i))
			}
			if n := s.InjectBatch(pkts); n != burst {
				t.Fatalf("rate %d: %d of %d accepted", rate, n, burst)
			}
			for range pkts {
				(<-s.Output()).Free()
			}
		}
		s.Stop()
		var samples uint64
		for _, hs := range s.Telemetry().HistogramFamily("nfp_merger_merge_latency_ns") {
			samples += hs.H.Snapshot().Count
		}
		st := s.Stats()
		want := uint64(0)
		if rate == 1 {
			want = st.Outputs
		}
		if st.Outputs != bursts*burst || st.Drops != 0 || samples != want {
			t.Errorf("rate %d: %d merge-latency samples over %d outputs and %d drops, want %d over %d and 0",
				rate, samples, st.Outputs, st.Drops, want, bursts*burst)
		}
		if leak := s.Pool().InUse(); leak != 0 {
			t.Errorf("rate %d: pool leak: %d buffers", rate, leak)
		}
	}
}
