package dataplane

import (
	"fmt"
	"testing"
	"unsafe"

	"nfp/internal/graph"
	"nfp/internal/nf"
	"nfp/internal/nfa"
	"nfp/internal/packet"
)

// shardSpec builds a distinct 5-tuple per flow index, spread over
// enough source addresses and ports that every shard of a small server
// receives traffic.
func shardSpec(flowID, seq int) packet.BuildSpec {
	sp := spec(byte(1+flowID%19), uint16(1000+flowID), fmt.Sprintf("f%d-p%d", flowID, seq))
	return sp
}

// runShardTraffic starts s, injects n packets built by mk while a
// collector drains and frees outputs (so sustained runs never outgrow
// the pool), stops, and returns the output count.
func runShardTraffic(t *testing.T, s *Server, n int, mk func(i int) packet.BuildSpec) int {
	t.Helper()
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	col := collectOutputs(s)
	for i := 0; i < n; i++ {
		if !s.Inject(buildInto(t, s, mk(i))) {
			t.Fatal("inject failed")
		}
	}
	s.Stop()
	return col.wait()
}

func TestShardSmoke(t *testing.T) {
	s := New(Config{Shards: 4, PoolSize: 512})
	g := graph.Seq{Items: []graph.Node{nfn(nfa.NFMonitor, 0), nfn(nfa.NFFirewall, 0)}}
	if err := s.AddGraph(1, g); err != nil {
		t.Fatal(err)
	}
	const n = 1000
	got := runShardTraffic(t, s, n, func(i int) packet.BuildSpec {
		return shardSpec(i%40, i/40)
	})
	st := s.Stats()
	if st.Injected != n || st.Outputs != n || st.Drops != 0 {
		t.Fatalf("conservation: %+v", st)
	}
	if got != n {
		t.Fatalf("collected %d outputs, want %d", got, n)
	}
	if len(st.ShardIngress) != 4 {
		t.Fatalf("ShardIngress = %v, want 4 entries", st.ShardIngress)
	}
	var ingress uint64
	for sid, c := range st.ShardIngress {
		if c == 0 {
			t.Errorf("shard %d received no traffic (dispatch imbalance)", sid)
		}
		ingress += c
	}
	if ingress != n {
		t.Fatalf("shard ingress sums to %d, want %d", ingress, n)
	}
	if leak := s.Pool().InUse(); leak != 0 {
		t.Fatalf("pool leak: %d buffers", leak)
	}
}

// TestShardFlowAffinity is the flow-affinity property test: every
// packet of a 5-tuple executes on the shard its symmetric hash names,
// the assignment is stable across waves and burst sizes, and per-flow
// NF state exists only on the owning shard. The monitors are per-shard
// instances (AddGraphProvide), so -race additionally proves no NF state
// is ever touched from another shard's goroutine.
func TestShardFlowAffinity(t *testing.T) {
	for _, burst := range []int{1, 32} {
		t.Run(fmt.Sprintf("burst%d", burst), func(t *testing.T) {
			const shards = 4
			s := New(Config{Shards: shards, PoolSize: 512, Burst: burst})
			monitors := make([]*nf.Monitor, shards)
			for i := range monitors {
				monitors[i] = nf.NewMonitor()
			}
			g := graph.Seq{Items: []graph.Node{nfn(nfa.NFMonitor, 0), nfn(nfa.NFFirewall, 0)}}
			err := s.AddGraphProvide(1, g, func(shard int, node graph.NF) nf.NF {
				if node.Name == nfa.NFMonitor {
					return monitors[shard]
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			const flows = 60
			const waves = 3
			const perWave = 2
			got := runShardTraffic(t, s, flows*waves*perWave, func(i int) packet.BuildSpec {
				return shardSpec(i%flows, i/flows)
			})
			if got != flows*waves*perWave {
				t.Fatalf("collected %d outputs, want %d", got, flows*waves*perWave)
			}

			// Every flow's packets must all land on the shard its key
			// hashes to — and on no other shard.
			seen := make(map[packet.FlowKey]int)
			var total uint64
			for sid, m := range monitors {
				for _, rec := range m.Snapshot() {
					if want := s.ShardOfKey(rec.Key); want != sid {
						t.Errorf("flow %v observed on shard %d, hash names shard %d", rec.Key, sid, want)
					}
					if prev, dup := seen[rec.Key]; dup {
						t.Errorf("flow %v has state on shards %d and %d", rec.Key, prev, sid)
					}
					seen[rec.Key] = sid
					if rec.Stats.Packets != waves*perWave {
						t.Errorf("flow %v: %d packets on shard %d, want %d (packets strayed)",
							rec.Key, rec.Stats.Packets, sid, waves*perWave)
					}
					total += rec.Stats.Packets
				}
			}
			if len(seen) != flows {
				t.Fatalf("observed %d distinct flows, want %d", len(seen), flows)
			}
			if total != flows*waves*perWave {
				t.Fatalf("monitors counted %d packets, want %d", total, flows*waves*perWave)
			}
			// ShardOf (packet) and ShardOfKey (flow key) must agree, and
			// both directions of a flow hash to the same shard.
			for k, sid := range seen {
				if s.ShardOfKey(k.Reverse()) != sid {
					t.Errorf("flow %v: reverse direction hashes to a different shard", k)
				}
			}
			if leak := s.Pool().InUse(); leak != 0 {
				t.Fatalf("pool leak: %d buffers", leak)
			}
		})
	}
}

// TestShardInjectBatch drives the batched sharded ingress path: runs of
// same-shard packets dispatch as single ring enqueues, and everything
// still arrives exactly once.
func TestShardInjectBatch(t *testing.T) {
	s := New(Config{Shards: 4, PoolSize: 512})
	g := graph.Seq{Items: []graph.Node{nfn(nfa.NFMonitor, 0)}}
	if err := s.AddGraph(1, g); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	col := collectOutputs(s)
	const n = 960
	batch := make([]*packet.Packet, 0, 32)
	for i := 0; i < n; i++ {
		batch = append(batch, buildInto(t, s, shardSpec(i%48, i/48)))
		if len(batch) == cap(batch) {
			if got := s.InjectBatch(batch); got != len(batch) {
				t.Fatalf("InjectBatch = %d, want %d", got, len(batch))
			}
			batch = batch[:0]
		}
	}
	s.Stop()
	if got := col.wait(); got != n {
		t.Fatalf("collected %d outputs, want %d", got, n)
	}
	if st := s.Stats(); st.Injected != n || st.Outputs != n {
		t.Fatalf("conservation: %+v", st)
	}
	if leak := s.Pool().InUse(); leak != 0 {
		t.Fatalf("pool leak: %d buffers", leak)
	}
}

// TestInjectContract pins the one ingress ownership contract for every
// shard count and both entry points: over a burst mixing routable
// packets (dport 80), packets classified to MID 9, which has no
// installed graph (dport 81), and packets no rule matches (dport 82),
// the accepted count, the stable partition — pkts[:n] the accepted
// packets in order, pkts[n:] every reject, still the caller's to free —
// and the conservation counters are identical.
func TestInjectContract(t *testing.T) {
	const bursts, burstLen = 8, 24
	for _, shards := range []int{1, 4} {
		for _, batched := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards%d/batched=%v", shards, batched), func(t *testing.T) {
				s := New(Config{Shards: shards, PoolSize: 512})
				if err := s.AddGraph(1, nfn(nfa.NFMonitor, 0)); err != nil {
					t.Fatal(err)
				}
				s.Classifier().Clear()
				s.Classifier().AddRule(Match{DstPort: 80}, 1)
				s.Classifier().AddRule(Match{DstPort: 81}, 9)
				if err := s.Start(); err != nil {
					t.Fatal(err)
				}
				col := collectOutputs(s)
				accepted := 0
				for b := 0; b < bursts; b++ {
					pkts := make([]*packet.Packet, burstLen)
					var wantAcc, wantRej []*packet.Packet
					for i := range pkts {
						sp := shardSpec(b*burstLen+i, 0)
						// Rejects lead, trail and interleave, in both flavors.
						sp.DstPort = [...]uint16{82, 80, 80, 81, 80, 82, 81, 80}[(i+b)%8]
						pkts[i] = buildInto(t, s, sp)
						if sp.DstPort == 80 {
							wantAcc = append(wantAcc, pkts[i])
						} else {
							wantRej = append(wantRej, pkts[i])
						}
					}
					n := 0
					if batched {
						n = s.InjectBatch(pkts)
					} else {
						// The scalar entry point, partitioned by hand.
						var rej []*packet.Packet
						for _, p := range pkts {
							if s.Inject(p) {
								pkts[n] = p
								n++
							} else {
								rej = append(rej, p)
							}
						}
						copy(pkts[n:], rej)
					}
					if n != len(wantAcc) {
						t.Fatalf("burst %d: accepted %d, want %d", b, n, len(wantAcc))
					}
					for i, p := range pkts[:n] {
						if p != wantAcc[i] {
							t.Fatalf("burst %d: pkts[%d] is not the i-th accepted packet", b, i)
						}
					}
					rejected := map[*packet.Packet]bool{}
					for _, p := range pkts[n:] {
						rejected[p] = true
						p.Free()
					}
					for _, p := range wantRej {
						if !rejected[p] {
							t.Fatalf("burst %d: a rejected packet is missing from pkts[n:]", b)
						}
					}
					accepted += n
				}
				s.Stop()
				if got := col.wait(); got != accepted {
					t.Fatalf("collected %d outputs, want %d", got, accepted)
				}
				st := s.Stats()
				if st.Injected != uint64(accepted) || st.Injected != st.Outputs+st.Drops {
					t.Fatalf("injected=%d outputs=%d drops=%d, want %d injected and conservation",
						st.Injected, st.Outputs, st.Drops, accepted)
				}
				if leak := s.Pool().InUse(); leak != 0 {
					t.Fatalf("pool leak: %d buffers after the caller freed its rejects", leak)
				}
			})
		}
	}
}

// TestShardOfKeyAgreesWithShardOf: a packet runs on the shard its key
// names, a packet with no IPv4 flow key runs on shard 0, and an
// unsharded server names shard 0 for every key.
func TestShardOfKeyAgreesWithShardOf(t *testing.T) {
	s := New(Config{Shards: 4, PoolSize: 64})
	one := New(Config{Shards: 1, PoolSize: 64})
	if got := s.ShardOf(packet.New(make([]byte, 64))); got != 0 {
		t.Errorf("ShardOf(non-IPv4 frame) = %d, want 0", got)
	}
	for i := 0; i < 32; i++ {
		pkt := packet.Build(shardSpec(i, 0))
		k, err := pkt.FlowKey()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := s.ShardOf(pkt), s.ShardOfKey(k); got != want {
			t.Errorf("flow %v: ShardOf = %d, ShardOfKey = %d", k, got, want)
		}
		if got := one.ShardOfKey(k); got != 0 {
			t.Errorf("unsharded ShardOfKey(%v) = %d, want 0", k, got)
		}
	}
}

// TestShardedOutputs exercises the per-shard output channels: no fan-in
// goroutine, each consumer drains its own shard.
func TestShardedOutputs(t *testing.T) {
	s := New(Config{Shards: 4, PoolSize: 512, ShardedOutputs: true})
	g := graph.Seq{Items: []graph.Node{nfn(nfa.NFMonitor, 0)}}
	if err := s.AddGraph(1, g); err != nil {
		t.Fatal(err)
	}
	if s.Output() != nil {
		t.Fatal("Output() must be nil with ShardedOutputs")
	}
	chans := s.Outputs()
	if len(chans) != 4 {
		t.Fatalf("Outputs() returned %d channels, want 4", len(chans))
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(chans))
	done := make(chan struct{})
	for i, ch := range chans {
		go func(i int, ch <-chan *packet.Packet) {
			for p := range ch {
				counts[i]++
				p.Free()
			}
			done <- struct{}{}
		}(i, ch)
	}
	const n = 400
	for i := 0; i < n; i++ {
		if !s.Inject(buildInto(t, s, shardSpec(i%40, i/40))) {
			t.Fatal("inject failed")
		}
	}
	s.Stop()
	for range chans {
		<-done
	}
	total := 0
	for sid, c := range counts {
		if c == 0 {
			t.Errorf("shard %d output channel saw no packets", sid)
		}
		total += c
	}
	if total != n {
		t.Fatalf("shard outputs sum to %d, want %d", total, n)
	}
	if leak := s.Pool().InUse(); leak != 0 {
		t.Fatalf("pool leak: %d buffers", leak)
	}
}

// TestAddGraphInstancesRequiresSingleShard: a caller-provided instance
// cannot be shared across shards without breaking state locality.
func TestAddGraphInstancesRequiresSingleShard(t *testing.T) {
	s := New(Config{Shards: 2, PoolSize: 64})
	g := graph.Seq{Items: []graph.Node{nfn(nfa.NFMonitor, 0)}}
	insts := map[graph.NF]nf.NF{nfn(nfa.NFMonitor, 0): nf.NewMonitor()}
	if err := s.AddGraphInstances(1, g, insts); err == nil {
		t.Fatal("AddGraphInstances with explicit instances must fail on a sharded server")
	}
	// Nil instance maps are fine — they are just AddGraph.
	if err := s.AddGraphInstances(1, g, nil); err != nil {
		t.Fatal(err)
	}
}

// TestShardPreclassified: InjectPreclassified resolves the shard from
// the flow hash, so cross-server ingress keeps flow affinity.
func TestShardPreclassified(t *testing.T) {
	s := New(Config{Shards: 4, PoolSize: 256})
	monitors := make([]*nf.Monitor, 4)
	for i := range monitors {
		monitors[i] = nf.NewMonitor()
	}
	g := graph.Seq{Items: []graph.Node{nfn(nfa.NFMonitor, 0)}}
	err := s.AddGraphProvide(1, g, func(shard int, node graph.NF) nf.NF {
		return monitors[shard]
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	col := collectOutputs(s)
	const n = 200
	for i := 0; i < n; i++ {
		pkt := buildInto(t, s, shardSpec(i%20, i/20))
		pkt.Meta.MID = 1
		pkt.Meta.PID = uint64(i + 1)
		pkt.Meta.Version = 1
		if !s.InjectPreclassified(pkt) {
			t.Fatal("preclassified inject failed")
		}
	}
	s.Stop()
	if got := col.wait(); got != n {
		t.Fatalf("collected %d outputs, want %d", got, n)
	}
	for sid, m := range monitors {
		for _, rec := range m.Snapshot() {
			if want := s.ShardOfKey(rec.Key); want != sid {
				t.Errorf("preclassified flow %v executed on shard %d, want %d", rec.Key, sid, want)
			}
		}
	}
}

// TestShardLayout pins the shard header at two cache lines: its size
// class then aligns it to 64 bytes, so no neighbouring allocation shares
// a line with what every burst reads. Unpadded it is 88 bytes, in a
// size class whose objects share lines with their neighbours; at 104
// unpadded bytes fig13_dcmix's one-burst median read about 1 us higher
// on a 2-vCPU VM.
func TestShardLayout(t *testing.T) {
	if got := unsafe.Sizeof(shard{}); got != 128 {
		t.Fatalf("unsafe.Sizeof(shard{}) = %d, want 128", got)
	}
}

// TestPlanRuntimeLayout pins a plan runtime in the 176-byte size class,
// whose per-packet atomics (weight, inflight, terminal) the injector and
// every runtime touch. One more slice header would take it to 200 bytes,
// into the next size class, and a field that moved a runtime's layout
// has moved a one-burst p50 by 1–2 us before: a change that grows it is
// a measured one.
func TestPlanRuntimeLayout(t *testing.T) {
	if got := unsafe.Sizeof(planRuntime{}); got > 176 {
		t.Fatalf("unsafe.Sizeof(planRuntime{}) = %d, want at most 176", got)
	}
}
