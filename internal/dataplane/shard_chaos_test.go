package dataplane

import (
	"strconv"
	"testing"
	"time"

	"nfp/internal/faultinject"
	"nfp/internal/flow"
	"nfp/internal/graph"
	"nfp/internal/nf"
	"nfp/internal/nfa"
	"nfp/internal/telemetry"
)

// shardNFCounter reads a per-NF counter series for one shard of a
// sharded server (labels as buildRuntime writes them).
func shardNFCounter(s *Server, name, nfName string, mid uint32, shard int) uint64 {
	return s.Telemetry().Counter(name,
		telemetry.L("nf", nfName),
		telemetry.L("mid", strconv.FormatUint(uint64(mid), 10)),
		telemetry.L("shard", strconv.Itoa(shard)),
	).Value()
}

// shardFlows returns flow indices of shardSpec traffic that land on the
// given shard, enough to build per-shard injection waves.
func shardFlows(s *Server, shard, want int) []int {
	var out []int
	for id := 0; len(out) < want; id++ {
		if id > 100000 {
			panic("no flows hash to shard")
		}
		sp := shardSpec(id, 0)
		k := flow.Key{
			SrcIP: sp.SrcIP, DstIP: sp.DstIP, Proto: sp.Proto,
			SrcPort: sp.SrcPort, DstPort: sp.DstPort,
		}
		if s.ShardOfKey(k) == shard {
			out = append(out, id)
		}
	}
	return out
}

// TestShardIsolationPanic: a scheduled NF panic on one shard must not
// disturb the other shards — their packets keep flowing, conservation
// holds globally, and the supervisor restarts only the faulting
// shard's instance.
func TestShardIsolationPanic(t *testing.T) {
	const shards = 4
	const victim = 1
	var panicMon *faultinject.PanicNF
	s := New(Config{Shards: shards, PoolSize: 1024})
	g := graph.Seq{Items: []graph.Node{nfn(nfa.NFMonitor, 0), nfn(nfa.NFFirewall, 0)}}
	err := s.AddGraphProvide(1, g, func(shard int, node graph.NF) nf.NF {
		if node.Name == nfa.NFMonitor && shard == victim {
			// Panic on the 10th packet the victim shard's monitor sees.
			panicMon = faultinject.NewPanicNF(nf.NewMonitor(), 10)
			return panicMon
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

	// Per-shard flow sets, so each wave hits every shard deterministically.
	flowsOf := make([][]int, shards)
	for sid := range flowsOf {
		flowsOf[sid] = shardFlows(s, sid, 10)
	}
	const rounds = 20
	inject := func() {
		for r := 0; r < rounds; r++ {
			for sid := 0; sid < shards; sid++ {
				for _, id := range flowsOf[sid] {
					if !s.Inject(buildInto(t, s, shardSpec(id, r))) {
						t.Fatal("inject failed")
					}
				}
			}
		}
	}
	wave := uint64(rounds * 10 * shards)
	inject()
	for limit := time.Now().Add(2 * time.Second); panicMon.Panicked() == 0; {
		if time.Now().After(limit) {
			t.Fatalf("scheduled panic did not fire (calls=%d)", panicMon.Calls())
		}
		time.Sleep(100 * time.Microsecond)
	}
	// Wait for the supervisor to restore the victim shard, then prove
	// recovery with a second wave.
	for limit := time.Now().Add(2 * time.Second); ; {
		if shardNFCounter(s, "nfp_nf_restarts_total", nfa.NFMonitor, 1, victim) >= 1 {
			break
		}
		if time.Now().After(limit) {
			t.Fatal("victim shard instance was not restarted")
		}
		time.Sleep(100 * time.Microsecond)
	}
	inject()
	s.Stop()
	outs := uint64(col.wait())

	st := s.Stats()
	if st.Injected != 2*wave {
		t.Fatalf("injected = %d, want %d", st.Injected, 2*wave)
	}
	if outs != st.Outputs || st.Outputs+st.Drops != st.Injected {
		t.Fatalf("conservation broken: injected=%d outputs=%d drops=%d collected=%d",
			st.Injected, st.Outputs, st.Drops, outs)
	}
	if st.Panics != 1 || st.Restarts < 1 {
		t.Fatalf("panics=%d restarts=%d, want 1 and >=1", st.Panics, st.Restarts)
	}
	// Fault blast radius: only the victim shard restarted or dropped.
	for sid := 0; sid < shards; sid++ {
		restarts := shardNFCounter(s, "nfp_nf_restarts_total", nfa.NFMonitor, 1, sid)
		drops := shardNFCounter(s, "nfp_nf_drops_total", nfa.NFMonitor, 1, sid)
		if sid == victim {
			if restarts < 1 {
				t.Errorf("victim shard restarts = %d, want >= 1", restarts)
			}
			continue
		}
		if restarts != 0 || drops != 0 {
			t.Errorf("healthy shard %d: restarts=%d drops=%d, want 0/0 (fault leaked)", sid, restarts, drops)
		}
		// Healthy shards forwarded both waves in full.
		in := shardNFCounter(s, "nfp_nf_packets_in_total", nfa.NFMonitor, 1, sid)
		if in != 2*uint64(rounds*10) {
			t.Errorf("healthy shard %d saw %d packets, want %d", sid, in, 2*rounds*10)
		}
	}
	if leak := s.Pool().InUse(); leak != 0 {
		t.Fatalf("pool leak: %d buffers", leak)
	}
}

// TestShardIsolationStall: a wedged NF on one shard backpressures only
// that shard. Other shards keep forwarding at full conservation while
// the victim is stalled; releasing the stall drains everything.
func TestShardIsolationStall(t *testing.T) {
	const shards = 2
	const victim = 0
	var stallMon *faultinject.StallNF
	s := New(Config{Shards: shards, PoolSize: 1024})
	g := graph.Seq{Items: []graph.Node{nfn(nfa.NFMonitor, 0)}}
	err := s.AddGraphProvide(1, g, func(shard int, node graph.NF) nf.NF {
		if shard == victim {
			stallMon = faultinject.NewStallNF(nf.NewMonitor())
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

	flowsOf := make([][]int, shards)
	for sid := range flowsOf {
		flowsOf[sid] = shardFlows(s, sid, 10)
	}
	stallMon.Stall()
	// A bounded trickle into the stalled shard (well under its entry NF
	// ring), a full wave into the healthy one.
	const stalled = 50
	for i := 0; i < stalled; i++ {
		if !s.Inject(buildInto(t, s, shardSpec(flowsOf[victim][i%10], i/10))) {
			t.Fatal("inject failed")
		}
	}
	const healthyWave = 500
	for i := 0; i < healthyWave; i++ {
		if !s.Inject(buildInto(t, s, shardSpec(flowsOf[1][i%10], i/10))) {
			t.Fatal("inject failed")
		}
	}
	// The healthy shard must finish its whole wave while the victim is
	// still wedged.
	healthyOut := func() uint64 {
		return shardNFCounter(s, "nfp_nf_packets_out_total", nfa.NFMonitor, 1, 1)
	}
	for limit := time.Now().Add(2 * time.Second); healthyOut() < healthyWave; {
		if time.Now().After(limit) {
			t.Fatalf("healthy shard stalled too: %d/%d forwarded while victim wedged", healthyOut(), healthyWave)
		}
		time.Sleep(100 * time.Microsecond)
	}
	// The victim's runtime may still be parked on its idle ring (up to
	// 1 ms) when the healthy wave is through.
	for limit := time.Now().Add(2 * time.Second); stallMon.Stalled() == 0; {
		if time.Now().After(limit) {
			t.Fatal("victim monitor is not actually wedged")
		}
		time.Sleep(100 * time.Microsecond)
	}
	stallMon.Release()
	s.Stop()
	outs := uint64(col.wait())
	st := s.Stats()
	if st.Injected != stalled+healthyWave || outs != st.Outputs || st.Outputs+st.Drops != st.Injected {
		t.Fatalf("conservation broken: %+v (collected %d)", st, outs)
	}
	if leak := s.Pool().InUse(); leak != 0 {
		t.Fatalf("pool leak: %d buffers", leak)
	}
}
