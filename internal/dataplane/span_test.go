package dataplane

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"nfp/internal/core"
	"nfp/internal/graph"
	"nfp/internal/nf"
	"nfp/internal/nfa"
	"nfp/internal/packet"
	"nfp/internal/policy"
	"nfp/internal/telemetry"
)

// spanNF instantiates the NFs used by the span-model example chains.
func spanNF(t *testing.T, name string) nf.NF {
	t.Helper()
	switch name {
	case nfa.NFMonitor:
		return nf.NewMonitor()
	case nfa.NFIDS:
		ids, err := nf.NewIDS(10, true)
		if err != nil {
			t.Fatal(err)
		}
		return ids
	case nfa.NFLB:
		lb, err := nf.NewLoadBalancer(nf.DefaultBackendCount)
		if err != nil {
			t.Fatal(err)
		}
		return lb
	case nfa.NFVPN:
		vpn, err := nf.NewVPN(nil)
		if err != nil {
			t.Fatal(err)
		}
		return vpn
	case nfa.NFFirewall:
		fw, err := nf.NewFirewall(10)
		if err != nil {
			t.Fatal(err)
		}
		return fw
	default:
		t.Fatalf("no constructor for %q", name)
		return nil
	}
}

// spanServer compiles a chain policy and builds a rate-1-traced server
// around it with the given injection burst size.
func spanServer(t *testing.T, burst int, names ...string) *Server {
	t.Helper()
	res, err := compileJoin(t, policy.FromChain(names...), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	insts := make(map[graph.NF]nf.NF, len(names))
	for _, name := range names {
		insts[nfn(name, 0)] = spanNF(t, name)
	}
	s := New(Config{PoolSize: 512, TraceSampleRate: 1, TraceCapacity: 1 << 16, Burst: burst})
	if err := s.AddGraphInstances(1, res.Graph, insts); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpanDecompositionExact is the tentpole invariant: for every
// sampled packet, on every example graph, at scalar and batched burst
// sizes, the span buckets tile the e2e latency with EXACT equality —
// classify + ring-wait + service + merge-wait + merge + output == e2e.
func TestSpanDecompositionExact(t *testing.T) {
	chains := [][]string{
		{nfa.NFIDS, nfa.NFMonitor, nfa.NFLB},
		{nfa.NFVPN, nfa.NFMonitor, nfa.NFFirewall, nfa.NFLB},
		{nfa.NFMonitor, nfa.NFFirewall},
	}
	const n = 200
	for _, names := range chains {
		for _, burst := range []int{1, 32} {
			t.Run(fmt.Sprintf("%v/burst%d", names, burst), func(t *testing.T) {
				s := spanServer(t, burst, names...)
				outs := runTrafficBurst(t, s, n, burst, func(i int) packet.BuildSpec {
					return spec(byte(i%8), uint16(5000+i%16), "span-exactness")
				})
				for _, p := range outs {
					p.Free()
				}

				groups, truncated := s.Tracer().GroupByPID()
				if truncated != 0 {
					t.Fatalf("ring evicted %d traces despite 64Ki capacity", truncated)
				}
				if len(groups) != n {
					t.Fatalf("decomposable traces = %d, want %d", len(groups), n)
				}
				tails := 0
				for _, j := range (*s.shards[0].plans.Load())[1].plan.Joins {
					tails += j.ExpectTails
				}
				for pid, spans := range groups {
					if got := mergeWaits(spans); got != tails && spans[len(spans)-1].Stage == telemetry.StageOutput {
						t.Errorf("pid %d: %d merge-wait spans, want one per branch tail (%d)", pid, got, tails)
					}
					at, ok := telemetry.Decompose(spans)
					if !ok {
						t.Fatalf("pid %d: complete trace did not decompose: %d spans", pid, len(spans))
					}
					sum := at.Classify + at.RingWait + at.Service + at.MergeWait + at.Merge + at.Output
					if sum != at.E2E {
						t.Errorf("pid %d: buckets sum %d != e2e %d (off by %d): %+v",
							pid, sum, at.E2E, at.E2E-sum, at)
					}
					if at.E2E <= 0 {
						t.Errorf("pid %d: non-positive e2e %d", pid, at.E2E)
					}
				}
			})
		}
	}
}

// mergeWaits counts a trace's merge-wait spans.
func mergeWaits(spans []telemetry.TraceEvent) (n int) {
	for _, ev := range spans {
		if ev.Stage == telemetry.StageMergeWait {
			n++
		}
	}
	return n
}

// TestSpanDecompositionAcrossReload: with every packet sampled and bursts
// of 32, so every clock read a merger shares across a burst is in some
// chain, reloads under load put two generations' tails through the one
// merger at once. Every packet's spans still tile its end-to-end latency
// exactly, carry the one generation that admitted it, and hold one
// merge-wait span per branch tail.
func TestSpanDecompositionAcrossReload(t *testing.T) {
	const workers, perWorker, burst = 2, 1536, 32
	s := New(Config{PoolSize: 1024, Mergers: 1, Burst: burst, TraceSampleRate: 1, TraceCapacity: 1 << 17})
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
	col := collectOutputs(s)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var batch [burst]*packet.Packet
			for i := 0; i < perWorker; {
				got := s.Pool().AllocBatch(batch[:min(burst, perWorker-i)])
				if got == 0 {
					runtime.Gosched()
					continue
				}
				for j, pkt := range batch[:got] {
					packet.BuildInto(pkt, spec(byte((w*31+i+j)%17), uint16(7000+(i+j)%29), "span-reload"))
				}
				if acc := s.InjectBatch(batch[:got]); acc != got {
					t.Errorf("InjectBatch accepted %d of %d", acc, got)
				}
				i += got
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		// Each reload lands with traffic flowing: a fifth of it further in.
		for s.Stats().Injected < uint64((r+1)*workers*perWorker/5) {
			runtime.Gosched()
		}
		if err := s.Reload(1, g); err != nil {
			t.Fatalf("reload %d: %v", r, err)
		}
	}
	wg.Wait()
	s.Stop()
	if outs := col.wait(); outs != workers*perWorker {
		t.Fatalf("collected %d outputs, want %d", outs, workers*perWorker)
	}

	groups, truncated := s.Tracer().GroupByPID()
	if truncated != 0 || len(groups) != workers*perWorker {
		t.Fatalf("%d complete traces (%d truncated), want %d", len(groups), truncated, workers*perWorker)
	}
	gens := map[int]int{}
	for pid, spans := range groups {
		at, ok := telemetry.Decompose(spans)
		if !ok {
			t.Fatalf("pid %d: complete trace did not decompose: %d spans", pid, len(spans))
		}
		if sum := at.Classify + at.RingWait + at.Service + at.MergeWait + at.Merge + at.Output; sum != at.E2E {
			t.Errorf("pid %d: buckets sum %d != e2e %d: %+v", pid, sum, at.E2E, at)
		}
		if got := mergeWaits(spans); got != 2 {
			t.Errorf("pid %d: %d merge-wait spans, want one per branch tail (2)", pid, got)
		}
		for _, ev := range spans {
			if ev.Gen != spans[0].Gen {
				t.Errorf("pid %d: spans of generations %d and %d in one trace", pid, spans[0].Gen, ev.Gen)
				break
			}
		}
		gens[spans[0].Gen]++
	}
	if len(gens) < 2 {
		t.Errorf("every packet ran on one generation (%v): the reloads did not land under load", gens)
	}
}

// TestSpanDecompositionWideJoin: a join may collect more tails than a
// stage has versions (the branches of a no-copy group all report the one
// version they share), and a sampled packet still shows one merge-wait
// span per tail: the cursors wait beside the Accumulating Table, not in a
// fixed array inside the entry.
func TestSpanDecompositionWideJoin(t *testing.T) {
	const branches, n = packet.MaxVersion + 5, 96
	g := graph.Par{}
	for i := 0; i < branches; i++ {
		g.Branches = append(g.Branches, nfn(nfa.NFMonitor, i))
	}
	s := New(Config{PoolSize: 256, Mergers: 1, Burst: 8, TraceSampleRate: 1, TraceCapacity: 1 << 16})
	if err := s.AddGraph(1, g); err != nil {
		t.Fatal(err)
	}
	if got := (*s.shards[0].plans.Load())[1].plan.Joins[0].ExpectTails; got != branches {
		t.Fatalf("join expects %d tails, want %d", got, branches)
	}
	outs := runTrafficBurst(t, s, n, 8, func(i int) packet.BuildSpec {
		return spec(byte(i%8), uint16(5000+i%16), "span-wide-join")
	})
	for _, p := range outs {
		p.Free()
	}
	groups, truncated := s.Tracer().GroupByPID()
	if truncated != 0 || len(groups) != n || len(outs) != n {
		t.Fatalf("%d outputs, %d complete traces (%d truncated), want %d", len(outs), len(groups), truncated, n)
	}
	for pid, spans := range groups {
		if got := mergeWaits(spans); got != branches {
			t.Errorf("pid %d: %d merge-wait spans, want one per branch tail (%d)", pid, got, branches)
		}
		at, ok := telemetry.Decompose(spans)
		if !ok {
			t.Fatalf("pid %d: complete trace did not decompose: %d spans", pid, len(spans))
		}
		if sum := at.Classify + at.RingWait + at.Service + at.MergeWait + at.Merge + at.Output; sum != at.E2E {
			t.Errorf("pid %d: buckets sum %d != e2e %d: %+v", pid, sum, at.E2E, at)
		}
	}
	m := s.shards[0].mergers[0]
	if m.at.live != 0 || len(m.at.tails) > mergerQueue {
		t.Errorf("%d entries live, %d tail cursors kept: want none, and at most the merger ring's %d", m.at.live, len(m.at.tails), mergerQueue)
	}
	if leak := s.Pool().InUse(); leak != 0 {
		t.Errorf("pool leak: %d buffers", leak)
	}
}

// TestSpanCriticalPathSpeedup checks the critical-path analyzer on a
// graph the compiler parallelizes: every packet's critical path is
// bounded by its sequential service sum, and the aggregate measured
// speedup is strictly above 1 (the paper's premise — NF parallelism
// shortens the service component of latency).
func TestSpanCriticalPathSpeedup(t *testing.T) {
	s := spanServer(t, 1, nfa.NFIDS, nfa.NFMonitor, nfa.NFLB)
	const n = 400
	outs := runTraffic(t, s, n, func(i int) packet.BuildSpec {
		return spec(byte(i%8), uint16(6000+i%16), "span-speedup")
	})
	for _, p := range outs {
		p.Free()
	}

	groups, _ := s.Tracer().GroupByPID()
	if len(groups) == 0 {
		t.Fatal("no complete traces captured")
	}
	parallel := false
	for pid, spans := range groups {
		cp, ok := telemetry.AnalyzeCriticalPath(spans)
		if !ok {
			t.Fatalf("pid %d: trace did not analyze", pid)
		}
		if cp.CriticalNS > cp.SeqNS {
			t.Errorf("pid %d: critical path %dns exceeds sequential sum %dns", pid, cp.CriticalNS, cp.SeqNS)
		}
		if cp.CriticalNS < cp.SeqNS {
			parallel = true
		}
	}
	if !parallel {
		t.Error("no packet had critical < seq — compiled graph is not parallel")
	}

	rep := telemetry.BuildCriticalPathReport(s.Tracer().Events())
	mc := rep.ByMID[1]
	if mc == nil {
		t.Fatal("mid 1 missing from critical-path report")
	}
	if mc.Packets != len(groups) {
		t.Errorf("report packets = %d, want %d", mc.Packets, len(groups))
	}
	if mc.Speedup <= 1.0 {
		t.Errorf("aggregate speedup = %.3f, want > 1.0 on a parallel graph", mc.Speedup)
	}
}
