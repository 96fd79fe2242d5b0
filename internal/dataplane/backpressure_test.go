package dataplane

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"nfp/internal/faultinject"
	"nfp/internal/graph"
	"nfp/internal/nf"
	"nfp/internal/nfa"
	"nfp/internal/packet"
	"nfp/internal/policy"
)

func TestParseBackpressurePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want BackpressurePolicy
		err  bool
	}{
		{"", BPBlock, false},
		{"block", BPBlock, false},
		{"drop-tail", BPDropTail, false},
		{"droptail", BPDropTail, false},
		{"shed-lowest-priority", BPShedLowestPriority, false},
		{"shed", BPShedLowestPriority, false},
		{"random-early", 0, true},
	}
	for _, c := range cases {
		got, err := ParseBackpressurePolicy(c.in)
		if c.err != (err != nil) {
			t.Errorf("ParseBackpressurePolicy(%q) err = %v, want err=%v", c.in, err, c.err)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParseBackpressurePolicy(%q) = %v, want %v", c.in, got, c.want)
		}
		if err == nil && got.String() == "" {
			t.Errorf("%v renders empty", got)
		}
	}
}

// TestBackpressureBlockParksNotSpins is the busy-wait regression test:
// a producer stuck behind a stalled downstream ring must transition
// from bounded yielding to parking (observable on the parks counter
// while still stuck) instead of pegging a core with unbounded
// Gosched retries — and the block policy must stay lossless.
func TestBackpressureBlockParksNotSpins(t *testing.T) {
	const spinLimit = 16
	stallMon := faultinject.NewStallNF(nf.NewMonitor())
	s := New(Config{
		PoolSize: 256, RingSize: 8, Burst: 4,
		RingPolicy: BPBlock, SpinLimit: spinLimit,
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
	if st.Sheds != 0 {
		t.Fatalf("block policy shed %d packets (must be lossless)", st.Sheds)
	}
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

// TestShedLowestPrioritySpares the high-priority ring: with the
// shed-lowest-priority policy, only the lowest-ranked NF's ring may
// shed; flooding a stalled high-priority NF must block (lossless), not
// drop.
func TestShedLowestPriorityTargetsOnlyLowRank(t *testing.T) {
	pol := policy.Policy{Rules: []policy.Rule{policy.Priority(nfa.NFMonitor, nfa.NFL3Fwd)}}
	prio := pol.PriorityRanks()
	if prio[nfa.NFMonitor] <= prio[nfa.NFL3Fwd] {
		t.Fatalf("priority ranks inverted: %v", prio)
	}

	// Chain monitor -> l3fwd: the l3fwd (lowest rank) is sheddable, the
	// monitor is not. Stall the l3fwd: the monitor keeps passing bursts
	// downstream, which must shed at the l3fwd ring after the spin
	// budget — while the monitor's own ring never sheds.
	stallFwd := faultinject.NewStallNF(mustL3(t))
	mon := nf.NewMonitor()
	s := New(Config{
		PoolSize: 512, RingSize: 8, Burst: 8,
		RingPolicy: BPShedLowestPriority, SpinLimit: 8,
		NodePriority: prio,
	})
	g := graph.Seq{Items: []graph.Node{nfn(nfa.NFMonitor, 0), nfn(nfa.NFL3Fwd, 0)}}
	if err := s.AddGraphInstances(1, g, map[graph.NF]nf.NF{
		nfn(nfa.NFMonitor, 0): mon,
		nfn(nfa.NFL3Fwd, 0):   stallFwd,
	}); err != nil {
		t.Fatal(err)
	}
	nodes := nodesOf(s, 1)
	var monNode, fwdNode *nodeRT
	for _, n := range nodes {
		switch n.head().plan.NF.Name {
		case nfa.NFMonitor:
			monNode = n
		case nfa.NFL3Fwd:
			fwdNode = n
		}
	}
	if monNode.canShed {
		t.Fatal("high-priority monitor ring is marked sheddable")
	}
	if !fwdNode.canShed || fwdNode.shedImmediate {
		t.Fatal("low-priority l3fwd ring should shed after the spin budget")
	}

	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	col := collectOutputs(s)
	stallFwd.Stall()
	const n = 200
	for i := 0; i < n; i++ {
		pkt := buildInto(t, s, spec(byte(i%5), uint16(6000+i%5), "prio"))
		if !s.Inject(pkt) {
			t.Fatal("classification failed")
		}
	}
	// The monitor keeps forwarding into the stalled l3fwd ring; sheds
	// must accumulate there (asynchronously — poll).
	for limit := time.Now().Add(2 * time.Second); shedsAt(s, nfa.NFL3Fwd) == 0; {
		if time.Now().After(limit) {
			t.Fatal("stalled low-priority ring never shed")
		}
		time.Sleep(100 * time.Microsecond)
	}
	stallFwd.Release()
	s.Stop()
	outs := uint64(col.wait())

	st := s.Stats()
	if n := shedsAt(s, nfa.NFMonitor); n != 0 {
		t.Fatalf("high-priority monitor ring shed %d packets", n)
	}
	if n := shedsAt(s, nfa.NFL3Fwd); n != st.Sheds {
		t.Fatalf("sheds not attributed to the l3fwd ring: node=%d total=%d", n, st.Sheds)
	}
	if st.Outputs+st.Drops != st.Injected {
		t.Fatalf("conservation broken: injected=%d outputs=%d drops=%d",
			st.Injected, st.Outputs, st.Drops)
	}
	if outs != st.Outputs {
		t.Fatalf("collected %d outputs, counter says %d", outs, st.Outputs)
	}
	// The monitor saw everything (its ring never dropped).
	if mon.Total().Packets != n {
		t.Fatalf("monitor saw %d packets, want %d", mon.Total().Packets, n)
	}
	if leak := s.Pool().InUse(); leak != 0 {
		t.Fatalf("pool leak: %d buffers", leak)
	}
}

// TestDropTailConservationExact is the overload accounting property at
// its sharpest: a pass-everything NF behind an 8-slot drop-tail ring,
// fed by a seed-determined random interleaving of Inject and
// InjectBatch. With the NF never dropping, every terminal drop IS a
// shed, so the law tightens from >= to ==:
//
//	injected == outputs + drops  and  drops == sheds, exactly.
func TestDropTailConservationExact(t *testing.T) {
	trials := 8
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(9000 + trial)))
		s := New(Config{
			PoolSize: 512, RingSize: 8, Burst: 32,
			RingPolicy: BPDropTail,
		})
		if err := s.AddGraphInstances(1, nfn(nfa.NFMonitor, 0), map[graph.NF]nf.NF{
			nfn(nfa.NFMonitor, 0): nf.NewMonitor(),
		}); err != nil {
			t.Fatal(err)
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		col := collectOutputs(s)

		const n = 500
		batch := make([]*packet.Packet, 32)
		for i := 0; i < n; {
			if rng.Intn(2) == 0 {
				pkt := buildInto(t, s, spec(byte(i%5), uint16(7000+i%5), "prop"))
				if !s.Inject(pkt) {
					t.Fatal("classification failed")
				}
				i++
				continue
			}
			want := 1 + rng.Intn(32)
			if n-i < want {
				want = n - i
			}
			got := s.Pool().AllocBatch(batch[:want])
			for got == 0 {
				got = s.Pool().AllocBatch(batch[:want])
			}
			for j := 0; j < got; j++ {
				packet.BuildInto(batch[j], spec(byte((i+j)%5), uint16(7000+(i+j)%5), "prop"))
			}
			if acc := s.InjectBatch(batch[:got]); acc != got {
				t.Fatalf("batch classification failed: %d of %d", acc, got)
			}
			i += got
		}
		s.Stop()
		outs := uint64(col.wait())

		st := s.Stats()
		if st.Injected != n {
			t.Fatalf("trial %d: injected = %d, want %d", trial, st.Injected, n)
		}
		if st.Outputs+st.Drops != st.Injected {
			t.Fatalf("trial %d: conservation broken: injected=%d outputs=%d drops=%d",
				trial, st.Injected, st.Outputs, st.Drops)
		}
		if st.Drops != st.Sheds {
			t.Fatalf("trial %d: drops=%d != sheds=%d (no-drop NF: every drop must be a shed)",
				trial, st.Drops, st.Sheds)
		}
		if outs != st.Outputs {
			t.Fatalf("trial %d: collected %d outputs, counter says %d", trial, outs, st.Outputs)
		}
		if leak := s.Pool().InUse(); leak != 0 {
			t.Fatalf("trial %d: pool leak: %d buffers", trial, leak)
		}
	}
}

func mustL3(t *testing.T) nf.NF {
	t.Helper()
	fwd, err := nf.NewL3Forwarder(100)
	if err != nil {
		t.Fatal(err)
	}
	return fwd
}

// TestOverloadBehindSequentialJoins: a shedding ring policy keeps the
// injector moving whatever the graph weighs. On default-sized rings a
// graph of joins in sequence weighs enough that the admission budget
// covers fewer packets than one NF ring holds, so a stalled NF's ring
// cannot overflow; the policy then sheds at admission, after the bounded
// spin, instead of parking the injector there for as long as the stall
// lasts.
func TestOverloadBehindSequentialJoins(t *testing.T) {
	for _, policy := range []BackpressurePolicy{BPDropTail, BPShedLowestPriority} {
		for stages := 2; stages <= 3; stages++ {
			for _, at := range []int{0, stages - 1} {
				t.Run(fmt.Sprintf("%v/stages=%d/stalled=%d", policy, stages, at), func(t *testing.T) {
					stall := faultinject.NewStallNF(nf.NewMonitor())
					var g graph.Seq
					for i := 0; i < stages; i++ {
						g.Items = append(g.Items, copyStage(nfn(nfa.NFMonitor, i), nfn(nfa.NFLB, i)))
					}
					s := New(Config{RingPolicy: policy, SpinLimit: 8})
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
					select {
					case <-injDone:
					case <-time.After(20 * time.Second):
						st := s.Stats()
						t.Errorf("injector still held behind the stalled NF: injected=%d sheds=%d sites=%v",
							st.Injected, st.Sheds, backpressureSites(s))
					}
					stall.Release()
					<-injDone
					s.Stop()
					outs := uint64(col.wait())

					st := s.Stats()
					if st.Sheds == 0 || shedsAt(s, "admission") == 0 {
						t.Errorf("sheds = %d (%d at admission), want the overflow shed there", st.Sheds, shedsAt(s, "admission"))
					}
					if st.Injected != n || st.Injected != st.Outputs+st.Drops || st.Drops != st.Sheds || outs != st.Outputs {
						t.Errorf("accounting: injected=%d outputs=%d drops=%d sheds=%d collected=%d",
							st.Injected, st.Outputs, st.Drops, st.Sheds, outs)
					}
					auditLedger(t, s, st.Drops)
					if leak := s.Pool().InUse(); leak != 0 {
						t.Fatalf("pool leak: %d buffers", leak)
					}
				})
			}
		}
	}
}
