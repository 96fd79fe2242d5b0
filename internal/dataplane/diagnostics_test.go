package dataplane

import (
	"sync"
	"testing"
	"time"

	"nfp/internal/graph"
	"nfp/internal/nfa"
	"nfp/internal/packet"
	"nfp/internal/telemetry"
)

// recordingObserver counts ObserveFlow calls for wiring tests.
type recordingObserver struct {
	mu    sync.Mutex
	calls int
	pkts  uint64
	bytes uint64
	flows map[packet.FlowKey]uint64
}

func (r *recordingObserver) ObserveFlow(k packet.FlowKey, pkts, bytes uint64) {
	r.mu.Lock()
	r.calls++
	r.pkts += pkts
	r.bytes += bytes
	if r.flows == nil {
		r.flows = map[packet.FlowKey]uint64{}
	}
	r.flows[k] += pkts
	r.mu.Unlock()
}

func TestFlowObserverSeesEveryPacketAtRate1(t *testing.T) {
	obs := &recordingObserver{}
	s := New(Config{PoolSize: 64, FlowAccount: obs, TraceSampleRate: 1})
	if err := s.AddGraph(1, graph.Seq{Items: []graph.Node{nfn(nfa.NFMonitor, 0)}}); err != nil {
		t.Fatal(err)
	}
	const n = 40
	runTraffic(t, s, n, func(i int) packet.BuildSpec {
		return spec(byte(i%4), uint16(2000+i%4), "x")
	})
	if obs.calls != n || obs.pkts != n {
		t.Fatalf("observer saw %d calls / %d pkts, want %d at rate 1", obs.calls, obs.pkts, n)
	}
	if len(obs.flows) != 4 {
		t.Fatalf("distinct flows = %d, want 4", len(obs.flows))
	}
	if obs.bytes == 0 {
		t.Fatalf("no bytes accounted")
	}
}

func TestFlowObserverSamplesAndScales(t *testing.T) {
	obs := &recordingObserver{}
	s := New(Config{PoolSize: 128, FlowAccount: obs, TraceSampleRate: 4})
	if err := s.AddGraph(1, graph.Seq{Items: []graph.Node{nfn(nfa.NFMonitor, 0)}}); err != nil {
		t.Fatal(err)
	}
	const n = 64
	runTraffic(t, s, n, func(i int) packet.BuildSpec {
		return spec(byte(i%2), uint16(3000+i%2), "x")
	})
	// PIDs are sequential from 1; the tracer's hash picks about 1 in 4.
	want := 0
	for pid := uint64(1); pid <= n; pid++ {
		if s.Tracer().Sampled(pid) {
			want++
		}
	}
	if want == 0 || want == n {
		t.Fatalf("rate 4 sampled %d of %d PIDs", want, n)
	}
	if obs.calls != want {
		t.Fatalf("observer calls = %d, want %d (the sampled PIDs)", obs.calls, want)
	}
	// Scaled: each observation credits the full sample rate.
	if obs.pkts != 4*uint64(want) {
		t.Fatalf("scaled pkts = %d, want %d", obs.pkts, 4*want)
	}
}

// TestOneSampledSet: TraceSampleRate is the only sampling decision, so
// the three per-packet observations cover the same packets — the PIDs
// with spans, the end-to-end latency samples and the flow-observer calls
// agree one for one — and with it unset none of the three fires.
func TestOneSampledSet(t *testing.T) {
	run := func(rate int) (*Server, *recordingObserver) {
		obs := &recordingObserver{}
		s := New(Config{PoolSize: 256, TraceCapacity: 1 << 14, FlowAccount: obs, TraceSampleRate: rate})
		g := graph.Seq{Items: []graph.Node{nfn(nfa.NFMonitor, 0), nfn(nfa.NFL3Fwd, 0)}}
		if err := s.AddGraph(1, g); err != nil {
			t.Fatal(err)
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		col := collectOutputs(s)
		for i := 0; i < 512; i++ {
			pkt := buildInto(t, s, spec(byte(i%7), uint16(4000+i%11), "x"))
			pkt.Ingress = time.Now().UnixNano()
			if !s.Inject(pkt) {
				t.Fatal("classification failed")
			}
		}
		s.Stop()
		if got := col.wait(); got != 512 {
			t.Fatalf("outputs = %d, want 512", got)
		}
		return s, obs
	}
	e2eCount := func(s *Server) (n uint64) {
		for _, hs := range s.Telemetry().HistogramFamily("nfp_e2e_latency_ns") {
			n += hs.H.Snapshot().Count
		}
		return n
	}
	for _, rate := range []int{1, 8} {
		s, obs := run(rate)
		traced := map[uint64]bool{}
		for _, ev := range s.Tracer().Events() {
			traced[ev.PID] = true
		}
		for pid := uint64(1); pid <= 512; pid++ {
			if traced[pid] != s.Tracer().Sampled(pid) {
				t.Fatalf("rate %d: pid %d has spans = %v, sampled = %v", rate, pid, traced[pid], !traced[pid])
			}
		}
		if len(traced) == 0 || (rate > 1 && len(traced) >= 512/2) {
			t.Fatalf("rate %d traced %d of 512 PIDs", rate, len(traced))
		}
		if got := e2eCount(s); got != uint64(len(traced)) {
			t.Errorf("rate %d: %d e2e latency samples, %d traced PIDs", rate, got, len(traced))
		}
		if obs.calls != len(traced) || obs.pkts != uint64(rate*len(traced)) {
			t.Errorf("rate %d: observer saw %d calls / %d scaled pkts, %d traced PIDs", rate, obs.calls, obs.pkts, len(traced))
		}
	}
	s, obs := run(0)
	if s.Tracer() != nil || e2eCount(s) != 0 || obs.calls != 0 {
		t.Errorf("rate 0: tracer %v, %d e2e samples, %d observer calls — want nothing observed",
			s.Tracer(), e2eCount(s), obs.calls)
	}
}

func TestE2ELatencyHistogramAndRingCapacity(t *testing.T) {
	s := New(Config{PoolSize: 64, RingSize: 128, TraceSampleRate: 1})
	if err := s.AddGraph(3, graph.Seq{Items: []graph.Node{nfn(nfa.NFMonitor, 0)}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := range s.Output() {
			p.Free()
		}
	}()
	const n = 30
	for i := 0; i < n; i++ {
		pkt := buildInto(t, s, spec(byte(i%3), uint16(4000+i%3), "x"))
		pkt.Ingress = time.Now().UnixNano()
		if !s.Inject(pkt) {
			t.Fatal("classification failed")
		}
	}
	s.Stop()
	<-done
	fam := s.Telemetry().HistogramFamily("nfp_e2e_latency_ns")
	if len(fam) != 1 {
		t.Fatalf("e2e latency series = %d, want 1", len(fam))
	}
	hs := fam[0].H.Snapshot()
	if hs.Count != n {
		t.Fatalf("e2e samples = %d, want %d (rate 1, ingress stamped)", hs.Count, n)
	}
	if hs.Min == 0 && hs.Max == 0 {
		t.Fatalf("e2e latency all zero — ingress stamp not used")
	}
	snap := s.Telemetry().Snapshot()
	cap := snap.GaugeValue("nfp_nf_ring_capacity",
		telemetry.L("nf", "monitor"), telemetry.L("mid", "3"))
	if cap < 128 {
		t.Fatalf("ring capacity gauge = %d, want >= 128", cap)
	}
}

func TestE2EDisabledByDefault(t *testing.T) {
	s := New(Config{PoolSize: 64})
	if err := s.AddGraph(1, graph.Seq{Items: []graph.Node{nfn(nfa.NFMonitor, 0)}}); err != nil {
		t.Fatal(err)
	}
	runTraffic(t, s, 10, func(i int) packet.BuildSpec {
		return spec(byte(i), uint16(5000+i), "x")
	})
	if fam := s.Telemetry().HistogramFamily("nfp_e2e_latency_ns"); len(fam) != 0 {
		t.Fatalf("e2e latency recorded with TraceSampleRate unset")
	}
}
