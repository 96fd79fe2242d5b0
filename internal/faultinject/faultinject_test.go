package faultinject

import (
	"net/netip"
	"testing"
	"time"

	"nfp/internal/mempool"
	"nfp/internal/nf"
	"nfp/internal/nfa"
	"nfp/internal/packet"
)

func testPacket(t *testing.T) *packet.Packet {
	t.Helper()
	pkt := &packet.Packet{}
	pkt.Attach(make([]byte, 256), 0, nil)
	packet.BuildInto(pkt, packet.BuildSpec{
		SrcIP: netip.AddrFrom4([4]byte{10, 0, 0, 1}),
		DstIP: netip.AddrFrom4([4]byte{10, 0, 0, 2}),
		Proto: packet.ProtoUDP, SrcPort: 1000, DstPort: 2000, Size: 64,
	})
	return pkt
}

func TestPanicNFSchedule(t *testing.T) {
	inner := nf.NewMonitor()
	p := NewPanicNF(inner, 2, 3)
	pkt := testPacket(t)

	if v := p.Process(pkt); v != nf.Pass {
		t.Fatalf("call 1: got %v, want pass", v)
	}
	for call := 2; call <= 3; call++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("call %d: expected panic", call)
				}
			}()
			p.Process(pkt)
		}()
	}
	if v := p.Process(pkt); v != nf.Pass {
		t.Fatalf("call 4: got %v, want pass", v)
	}
	if got := p.Panicked(); got != 2 {
		t.Fatalf("Panicked() = %d, want 2", got)
	}
	if got := p.Calls(); got != 4 {
		t.Fatalf("Calls() = %d, want 4", got)
	}
	if p.Name() != inner.Name() {
		t.Fatalf("Name() = %q, want %q", p.Name(), inner.Name())
	}
}

func TestStallNFGate(t *testing.T) {
	s := NewStallNF(nf.NewMonitor())
	pkt := testPacket(t)

	// Released: passes through.
	if v := s.Process(pkt); v != nf.Pass {
		t.Fatalf("released Process: got %v, want pass", v)
	}

	s.Stall()
	done := make(chan nf.Verdict, 1)
	go func() { done <- s.Process(pkt) }()

	// The call must park on the gate, not return.
	for s.Stalled() == 0 {
	}
	select {
	case <-done:
		t.Fatal("Process returned while stalled")
	default:
	}

	s.Release()
	if v := <-done; v != nf.Pass {
		t.Fatalf("post-release verdict: got %v, want pass", v)
	}
	if s.Stalled() != 0 {
		t.Fatalf("Stalled() = %d after release, want 0", s.Stalled())
	}
	// Release is idempotent; a released wrapper passes through again.
	s.Release()
	if v := s.Process(pkt); v != nf.Pass {
		t.Fatalf("re-released Process: got %v, want pass", v)
	}
}

func TestAllocScheduleFailsExactBatches(t *testing.T) {
	pool := mempool.New(8, 256)
	sched := NewAllocSchedule(2)
	pool.SetFaultHook(sched.Hook)

	p1 := pool.Get()
	if p1 == nil {
		t.Fatal("batch 1 should succeed")
	}
	if pool.Get() != nil {
		t.Fatal("batch 2 should fail by schedule")
	}
	p3 := pool.Get()
	if p3 == nil {
		t.Fatal("batch 3 should succeed")
	}
	if sched.Failed() != 1 || sched.Batches() != 3 {
		t.Fatalf("schedule saw batches=%d failed=%d, want 3/1", sched.Batches(), sched.Failed())
	}
	pool.SetFaultHook(nil)
	p1.Free()
	p3.Free()
	if pool.InUse() != 0 {
		t.Fatalf("pool leak: %d in use", pool.InUse())
	}
}

func TestPoolHog(t *testing.T) {
	pool := mempool.New(4, 256)
	hog := NewPoolHog(pool)
	if got := hog.Grab(10); got != 4 {
		t.Fatalf("Grab(10) = %d, want 4 (pool capacity)", got)
	}
	if pool.Get() != nil {
		t.Fatal("pool should be exhausted while hogged")
	}
	hog.ReleaseAll()
	if hog.Held() != 0 {
		t.Fatalf("Held() = %d after release", hog.Held())
	}
	if pool.InUse() != 0 {
		t.Fatalf("pool leak: %d in use", pool.InUse())
	}
}

func TestStallNFSetDelayInflatesServiceTime(t *testing.T) {
	s := NewStallNF(nf.NewMonitor())
	p := testPacket(t)
	start := time.Now()
	s.Process(p)
	if base := time.Since(start); base > 2*time.Millisecond {
		t.Fatalf("undelayed call took %v", base)
	}
	s.SetDelay(10 * time.Millisecond)
	if s.Delay() != 10*time.Millisecond {
		t.Fatalf("Delay() = %v", s.Delay())
	}
	start = time.Now()
	s.Process(p)
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("delayed call took %v, want >= 10ms", d)
	}
	s.SetDelay(0)
	start = time.Now()
	s.Process(p)
	if d := time.Since(start); d > 2*time.Millisecond {
		t.Fatalf("cleared delay still slow: %v", d)
	}
}

// lbSpy is the registry's load balancer, noting the size of every burst
// its ProcessBatch is handed.
type lbSpy struct {
	*nf.LoadBalancer
	bursts []int
}

func (s *lbSpy) ProcessBatch(pkts []*packet.Packet, verdicts []nf.Verdict) {
	s.bursts = append(s.bursts, len(pkts))
	s.LoadBalancer.ProcessBatch(pkts, verdicts)
}

// TestWrappersForwardTheBurst: both wrappers hand a whole burst to a
// wrapped registry lb's ProcessBatch (its WarmHeaders pass included),
// and a panic scheduled inside a burst processes the packets before it,
// then fires.
func TestWrappersForwardTheBurst(t *testing.T) {
	burst := func() ([]*packet.Packet, []nf.Verdict) {
		pkts := make([]*packet.Packet, 8)
		for i := range pkts {
			pkts[i] = testPacket(t)
		}
		return pkts, make([]nf.Verdict, len(pkts))
	}
	lb := func() *lbSpy {
		inst, err := nf.NewRegistry().New(nfa.NFLB)
		if err != nil {
			t.Fatal(err)
		}
		return &lbSpy{LoadBalancer: inst.(*nf.LoadBalancer)}
	}
	rewritten := func(p *packet.Packet) bool {
		k, err := p.FlowKey()
		return err == nil && k.Dst != [4]byte{10, 0, 0, 2}
	}

	for name, wrap := range map[string]func(nf.NF) nf.NF{
		"panic": func(in nf.NF) nf.NF { return NewPanicNF(in, 100) },
		"stall": func(in nf.NF) nf.NF { return NewStallNF(in) },
	} {
		spy := lb()
		pkts, verdicts := burst()
		nf.ProcessAll(wrap(spy), pkts, verdicts)
		if len(spy.bursts) != 1 || spy.bursts[0] != len(pkts) {
			t.Errorf("%s: LoadBalancer.ProcessBatch saw bursts %v, want one of %d", name, spy.bursts, len(pkts))
		}
		for i, p := range pkts {
			if !rewritten(p) {
				t.Errorf("%s: packet %d left the lb unrewritten", name, i)
			}
		}
	}

	spy := lb()
	p := NewPanicNF(spy, 5)
	pkts, verdicts := burst()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the scheduled panic did not fire")
			}
		}()
		p.ProcessBatch(pkts, verdicts)
	}()
	if len(spy.bursts) != 1 || spy.bursts[0] != 4 || p.Calls() != 5 || p.Panicked() != 1 {
		t.Errorf("bursts %v, calls %d, panics %d: want the 4-packet prefix, 5 calls, 1 panic",
			spy.bursts, p.Calls(), p.Panicked())
	}
	for i, pkt := range pkts {
		if rewritten(pkt) != (i < 4) {
			t.Errorf("packet %d rewritten = %v, want %v", i, rewritten(pkt), i < 4)
		}
	}
}
