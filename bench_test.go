// Benchmarks: one per table/figure of the paper's evaluation, driving
// the LIVE dataplane (real goroutines, rings, copies and merges) so
// regressions in the infrastructure are visible, plus the ablation
// benches listed in DESIGN.md §5. The analytic figure reproduction
// lives in cmd/nfpbench; these measure this repository's actual code.
//
// Run: go test -bench=. -benchmem
package nfp_test

import (
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"nfp/internal/baseline/onvm"
	"nfp/internal/baseline/rtc"
	"nfp/internal/cluster"
	"nfp/internal/core"
	"nfp/internal/dataplane"
	"nfp/internal/flow"
	"nfp/internal/graph"
	"nfp/internal/nf"
	"nfp/internal/nfa"
	"nfp/internal/packet"
	"nfp/internal/policy"
	"nfp/internal/telemetry"
	"nfp/internal/telemetry/diagnose"
)

// benchSpec is the 64B-class packet used by the paper's latency runs.
func benchSpec(i int, payload string) packet.BuildSpec {
	return packet.BuildSpec{
		SrcIP:   netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(1 + i%250)}),
		DstIP:   netip.MustParseAddr("10.100.0.1"),
		Proto:   packet.ProtoTCP,
		SrcPort: uint16(1024 + i%512), DstPort: 80,
		Payload: []byte(payload),
	}
}

// pump pushes b.N packets through a started server and waits for all
// outputs/drops, freeing outputs as they arrive.
func pump(b *testing.B, inject func(*packet.Packet) bool, pool interface {
	Get() *packet.Packet
}, out <-chan *packet.Packet, stop func(), payload string) {
	b.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := range out {
			p.Free()
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := pool.Get()
		for pkt == nil {
			runtime.Gosched()
			pkt = pool.Get()
		}
		packet.BuildInto(pkt, benchSpec(i, payload))
		if !inject(pkt) {
			b.Fatal("inject failed")
		}
	}
	stop()
	b.StopTimer()
	<-done
}

// pumpBurst is pump through the batched fast path: packets are
// allocated with AllocBatch and injected with InjectBatch in bursts.
func pumpBurst(b *testing.B, srv *dataplane.Server, burst int, payload string) {
	b.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := range srv.Output() {
			p.Free()
		}
	}()
	batch := make([]*packet.Packet, burst)
	b.ResetTimer()
	for i := 0; i < b.N; {
		want := burst
		if b.N-i < want {
			want = b.N - i
		}
		got := srv.Pool().AllocBatch(batch[:want])
		for got == 0 {
			runtime.Gosched()
			got = srv.Pool().AllocBatch(batch[:want])
		}
		for j := 0; j < got; j++ {
			packet.BuildInto(batch[j], benchSpec(i+j, payload))
		}
		if acc := srv.InjectBatch(batch[:got]); acc != got {
			b.Fatal("inject failed")
		}
		i += got
	}
	srv.Stop()
	b.StopTimer()
	<-done
}

// benchNFPGraph measures per-packet cost of a graph on the dataplane.
func benchNFPGraph(b *testing.B, g graph.Node, payload string) {
	srv := dataplane.New(dataplane.Config{PoolSize: 2048, Mergers: 2})
	if err := srv.AddGraph(1, g); err != nil {
		b.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		b.Fatal(err)
	}
	pump(b, srv.Inject, srv.Pool(), srv.Output(), srv.Stop, payload)
}

// benchNFPGraphBurst measures per-packet cost at a pinned burst size,
// with the traffic source matched to the mode: scalar inject at
// burst=1 (the compatibility path), batched alloc+inject otherwise.
// The Burst1/Burst32 benchmark pairs below are the tracked
// burst-regression suite (ci.sh bench).
func benchNFPGraphBurst(b *testing.B, g graph.Node, burst int, payload string) {
	benchNFPGraphBurstFusion(b, g, burst, dataplane.FusionOn, payload)
}

// benchNFPGraphBurstFusion is benchNFPGraphBurst with the execution
// engine pinned — the _NoFusion variants measure the pipelined
// one-ring-per-NF layout against the default fused engine.
func benchNFPGraphBurstFusion(b *testing.B, g graph.Node, burst int, fusion dataplane.FusionMode, payload string) {
	srv := dataplane.New(dataplane.Config{PoolSize: 2048, Mergers: 2, Burst: burst, Fusion: fusion})
	if err := srv.AddGraph(1, g); err != nil {
		b.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		b.Fatal(err)
	}
	if burst > 1 {
		pumpBurst(b, srv, burst, payload)
		return
	}
	pump(b, srv.Inject, srv.Pool(), srv.Output(), srv.Stop, payload)
}

func benchONVM(b *testing.B, chain []string, payload string) {
	srv, err := onvm.New(onvm.Config{PoolSize: 2048}, chain...)
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		b.Fatal(err)
	}
	inject := func(p *packet.Packet) bool { srv.Inject(p); return true }
	pump(b, inject, srv.Pool(), srv.Output(), srv.Stop, payload)
}

func benchRTC(b *testing.B, chain []string, replicas int, payload string) {
	srv, err := rtc.New(rtc.Config{PoolSize: 2048, Replicas: replicas}, chain...)
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		b.Fatal(err)
	}
	inject := func(p *packet.Packet) bool { srv.Inject(p); return true }
	pump(b, inject, srv.Pool(), srv.Output(), srv.Stop, payload)
}

func fwChain(n int) []string {
	c := make([]string, n)
	for i := range c {
		c[i] = nfa.NFFirewall
	}
	return c
}

func parGraph(name string, n int, copies bool) graph.Node {
	if n == 1 {
		return graph.NF{Name: name}
	}
	branches := make([]graph.Node, n)
	var groups [][]int
	for i := range branches {
		branches[i] = graph.NF{Name: name, Instance: i}
		if copies {
			groups = append(groups, []int{i})
		}
	}
	p := graph.Par{Branches: branches, Groups: groups}
	if copies {
		p.FullCopy = make([]bool, n)
	}
	return p
}

func seqGraph(name string, n int) graph.Node {
	items := make([]graph.Node, n)
	for i := range items {
		items[i] = graph.NF{Name: name, Instance: i}
	}
	if n == 1 {
		return items[0]
	}
	return graph.Seq{Items: items}
}

// --- Table 4: firewall chains on the three platforms ---

func BenchmarkTable4_NFP_Len1(b *testing.B) {
	benchNFPGraph(b, parGraph(nfa.NFFirewall, 1, false), "x")
}
func BenchmarkTable4_NFP_Len2(b *testing.B) {
	benchNFPGraph(b, parGraph(nfa.NFFirewall, 2, false), "x")
}
func BenchmarkTable4_NFP_Len3(b *testing.B) {
	benchNFPGraph(b, parGraph(nfa.NFFirewall, 3, false), "x")
}
func BenchmarkTable4_ONVM_Len1(b *testing.B) { benchONVM(b, fwChain(1), "x") }
func BenchmarkTable4_ONVM_Len3(b *testing.B) { benchONVM(b, fwChain(3), "x") }
func BenchmarkTable4_BESS_Len1(b *testing.B) { benchRTC(b, fwChain(1), 1, "x") }
func BenchmarkTable4_BESS_Len3(b *testing.B) { benchRTC(b, fwChain(3), 1, "x") }

// --- Figure 7: sequential forwarder chains ---

func BenchmarkFig7_NFP_SeqChain1(b *testing.B) { benchNFPGraph(b, seqGraph(nfa.NFL3Fwd, 1), "x") }
func BenchmarkFig7_NFP_SeqChain5(b *testing.B) { benchNFPGraph(b, seqGraph(nfa.NFL3Fwd, 5), "x") }
func BenchmarkFig7_ONVM_Chain5(b *testing.B) {
	benchONVM(b, []string{nfa.NFL3Fwd, nfa.NFL3Fwd, nfa.NFL3Fwd, nfa.NFL3Fwd, nfa.NFL3Fwd}, "x")
}

// --- Burst regression pairs: scalar (burst=1) vs batched (burst=32) ---
//
// Same graphs as Table 4 Len3, Figure 7 Chain5 and Figure 13
// north-south, with the burst size pinned; ci.sh bench tracks these
// into BENCH_burst.json.

func BenchmarkTable4_NFP_Len3_Burst1(b *testing.B) {
	benchNFPGraphBurst(b, parGraph(nfa.NFFirewall, 3, false), 1, "x")
}
func BenchmarkTable4_NFP_Len3_Burst32(b *testing.B) {
	benchNFPGraphBurst(b, parGraph(nfa.NFFirewall, 3, false), 32, "x")
}
func BenchmarkFig7_NFP_SeqChain5_Burst1(b *testing.B) {
	benchNFPGraphBurst(b, seqGraph(nfa.NFL3Fwd, 5), 1, "x")
}
func BenchmarkFig7_NFP_SeqChain5_Burst32(b *testing.B) {
	benchNFPGraphBurst(b, seqGraph(nfa.NFL3Fwd, 5), 32, "x")
}

// --- Shard scaling axis: Fig. 7 fused chain across 1/4/8 shards ---
//
// benchNFPGraphShards replays the tracked Fig. 7 fused configuration
// (Burst32) on a server sharded k ways: one injector goroutine per
// shard sourcing only flows that hash to that shard (per-queue RSS
// sources), per-shard output drainers, per-shard pool partitions. The
// Shard4 >= 3x Shard1 pps expectation only holds on a >= 4-core
// runner — on fewer cores the axis measures sharding overhead, not
// scaling.
func benchNFPGraphShards(b *testing.B, g graph.Node, shards int, payload string) {
	srv := dataplane.New(dataplane.Config{
		PoolSize:       2048 * shards,
		Mergers:        2,
		Burst:          32,
		Shards:         shards,
		ShardedOutputs: shards > 1,
	})
	if err := srv.AddGraph(1, g); err != nil {
		b.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		b.Fatal(err)
	}
	var drain sync.WaitGroup
	for _, ch := range srv.Outputs() {
		drain.Add(1)
		go func(ch <-chan *packet.Packet) {
			defer drain.Done()
			for p := range ch {
				p.Free()
			}
		}(ch)
	}
	// Per-shard flow index sets: each injector only builds packets whose
	// 5-tuple hashes to its own shard, so allocation, classification and
	// execution all stay shard-local.
	const flowsPerShard = 256
	idxOf := make([][]int, shards)
	for i, filled := 0, 0; filled < shards*flowsPerShard; i++ {
		if i >= 1<<20 {
			b.Fatal("could not find flows for every shard")
		}
		sp := benchSpec(i, payload)
		sid := srv.ShardOfKey(flow.Key{
			SrcIP: sp.SrcIP, DstIP: sp.DstIP, Proto: sp.Proto,
			SrcPort: sp.SrcPort, DstPort: sp.DstPort,
		})
		if len(idxOf[sid]) < flowsPerShard {
			idxOf[sid] = append(idxOf[sid], i)
			filled++
		}
	}
	b.ResetTimer()
	var inj sync.WaitGroup
	for sid := 0; sid < shards; sid++ {
		n := b.N / shards
		if sid < b.N%shards {
			n++
		}
		inj.Add(1)
		go func(sid, n int) {
			defer inj.Done()
			pool := srv.ShardPool(sid)
			idxs := idxOf[sid]
			batch := make([]*packet.Packet, 32)
			for i := 0; i < n; {
				want := 32
				if n-i < want {
					want = n - i
				}
				got := pool.AllocBatch(batch[:want])
				for got == 0 {
					runtime.Gosched()
					got = pool.AllocBatch(batch[:want])
				}
				for j := 0; j < got; j++ {
					packet.BuildInto(batch[j], benchSpec(idxs[(i+j)%len(idxs)], payload))
				}
				if acc := srv.InjectBatch(batch[:got]); acc != got {
					b.Errorf("shard %d: injected %d of %d", sid, acc, got)
					return
				}
				i += got
			}
		}(sid, n)
	}
	inj.Wait()
	srv.Stop()
	b.StopTimer()
	drain.Wait()
}

func BenchmarkFig7_NFP_SeqChain5_Burst32_Shard1(b *testing.B) {
	benchNFPGraphShards(b, seqGraph(nfa.NFL3Fwd, 5), 1, "x")
}
func BenchmarkFig7_NFP_SeqChain5_Burst32_Shard4(b *testing.B) {
	benchNFPGraphShards(b, seqGraph(nfa.NFL3Fwd, 5), 4, "x")
}
func BenchmarkFig7_NFP_SeqChain5_Burst32_Shard8(b *testing.B) {
	benchNFPGraphShards(b, seqGraph(nfa.NFL3Fwd, 5), 8, "x")
}

// BenchmarkFig7_NFP_SeqChain5_Burst32_Diagnose is the tracked Burst32
// benchmark with the full diagnosis layer live at nfpd's defaults: one
// packet in 64 observed (spans, classifier-fed top-K flow sketch, e2e
// latency histogram), plus a background sampler snapshotting the
// registry every 10ms. Its ns/op against the plain Burst32 run is the
// observability tax, the point of the measurement (ci.sh diagnose
// reports the delta). This traffic is the sketch's
// worst case: ~every sampled packet is a distinct flow, so each one
// takes the eviction path.
func BenchmarkFig7_NFP_SeqChain5_Burst32_Diagnose(b *testing.B) {
	reg := telemetry.NewRegistry()
	sketch := diagnose.NewTopK(16)
	srv := dataplane.New(dataplane.Config{
		PoolSize: 2048, Mergers: 2, Burst: 32,
		Telemetry:       reg,
		FlowAccount:     sketch,
		TraceSampleRate: 64,
	})
	if err := srv.AddGraph(1, seqGraph(nfa.NFL3Fwd, 5)); err != nil {
		b.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		b.Fatal(err)
	}
	d := diagnose.New(diagnose.Config{Registry: reg, Interval: 10 * time.Millisecond})
	d.Start()
	defer d.Stop()
	pumpBurst(b, srv, 32, "x")
}

func BenchmarkFig13_NorthSouth_Burst1(b *testing.B) {
	res, err := core.Compile(policy.FromChain(nfa.NFVPN, nfa.NFMonitor, nfa.NFFirewall, nfa.NFLB), nil, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	benchNFPGraphBurst(b, res.Graph, 1, "north-south payload")
}
func BenchmarkFig13_NorthSouth_Burst32(b *testing.B) {
	res, err := core.Compile(policy.FromChain(nfa.NFVPN, nfa.NFMonitor, nfa.NFFirewall, nfa.NFLB), nil, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	benchNFPGraphBurst(b, res.Graph, 32, "north-south payload")
}

// --- Fusion ablation: the same tracked graphs with fusion disabled ---
//
// The _NoFusion variants pin the pipelined engine (one ring per NF) so
// ci.sh bench-compare can report the run-to-completion win; the
// unsuffixed benchmarks above run the default fused engine.

func BenchmarkTable4_NFP_Len3_Burst32_NoFusion(b *testing.B) {
	benchNFPGraphBurstFusion(b, parGraph(nfa.NFFirewall, 3, false), 32, dataplane.FusionOff, "x")
}
func BenchmarkFig7_NFP_SeqChain5_Burst32_NoFusion(b *testing.B) {
	benchNFPGraphBurstFusion(b, seqGraph(nfa.NFL3Fwd, 5), 32, dataplane.FusionOff, "x")
}
func BenchmarkFig13_NorthSouth_Burst32_NoFusion(b *testing.B) {
	res, err := core.Compile(policy.FromChain(nfa.NFVPN, nfa.NFMonitor, nfa.NFFirewall, nfa.NFLB), nil, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	benchNFPGraphBurstFusion(b, res.Graph, 32, dataplane.FusionOff, "north-south payload")
}

// --- Figure 8: per-NF-type sequential vs parallel ---

func BenchmarkFig8_Forwarder_Seq(b *testing.B) { benchNFPGraph(b, seqGraph(nfa.NFL3Fwd, 2), "x") }
func BenchmarkFig8_Forwarder_Par(b *testing.B) {
	benchNFPGraph(b, parGraph(nfa.NFL3Fwd, 2, false), "x")
}
func BenchmarkFig8_Firewall_Seq(b *testing.B) { benchNFPGraph(b, seqGraph(nfa.NFFirewall, 2), "x") }
func BenchmarkFig8_Firewall_Par(b *testing.B) {
	benchNFPGraph(b, parGraph(nfa.NFFirewall, 2, false), "x")
}
func BenchmarkFig8_Monitor_Par(b *testing.B) {
	benchNFPGraph(b, parGraph(nfa.NFMonitor, 2, false), "x")
}
func BenchmarkFig8_IDS_Seq(b *testing.B) {
	benchNFPGraph(b, seqGraph(nfa.NFNIDS, 2), "benign payload for signature scanning")
}
func BenchmarkFig8_IDS_Par(b *testing.B) {
	benchNFPGraph(b, parGraph(nfa.NFNIDS, 2, false), "benign payload for signature scanning")
}
func BenchmarkFig8_VPN_Seq(b *testing.B) {
	benchNFPGraph(b, graph.NF{Name: nfa.NFVPN}, "payload-to-encrypt")
}

// --- Figure 9: synthetic NF complexity (live busy loops) ---

func benchSynthetic(b *testing.B, cycles, degree int, seq bool) {
	reg := nf.NewRegistry()
	reg.MustRegister(nfa.NFSynthetic, func() (nf.NF, error) { return nf.NewSynthetic(cycles), nil })
	var g graph.Node
	if seq {
		g = seqGraph(nfa.NFSynthetic, degree)
	} else {
		g = parGraph(nfa.NFSynthetic, degree, false)
	}
	srv := dataplane.New(dataplane.Config{PoolSize: 2048, Mergers: 2, Registry: reg})
	if err := srv.AddGraph(1, g); err != nil {
		b.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		b.Fatal(err)
	}
	pump(b, srv.Inject, srv.Pool(), srv.Output(), srv.Stop, "x")
}

func BenchmarkFig9_Cycles300_Seq(b *testing.B)  { benchSynthetic(b, 300, 2, true) }
func BenchmarkFig9_Cycles300_Par(b *testing.B)  { benchSynthetic(b, 300, 2, false) }
func BenchmarkFig9_Cycles3000_Seq(b *testing.B) { benchSynthetic(b, 3000, 2, true) }
func BenchmarkFig9_Cycles3000_Par(b *testing.B) { benchSynthetic(b, 3000, 2, false) }

// --- Figure 11: parallelism degree ---

func BenchmarkFig11_Degree2(b *testing.B) { benchSynthetic(b, 300, 2, false) }
func BenchmarkFig11_Degree5(b *testing.B) { benchSynthetic(b, 300, 5, false) }

// --- Figure 12: graph structures (the two extremes) ---

func BenchmarkFig12_Graph2_AllParallel(b *testing.B) {
	benchNFPGraph(b, parGraph(nfa.NFFirewall, 4, false), "x")
}
func BenchmarkFig12_Graph1_Sequential(b *testing.B) {
	benchNFPGraph(b, seqGraph(nfa.NFFirewall, 4), "x")
}

// --- Figure 13: the real-world chains, orchestrator-compiled ---

func benchCompiled(b *testing.B, chain []string, payload string) {
	res, err := core.Compile(policy.FromChain(chain...), nil, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	benchNFPGraph(b, res.Graph, payload)
}

func BenchmarkFig13_NorthSouth(b *testing.B) {
	benchCompiled(b, []string{nfa.NFVPN, nfa.NFMonitor, nfa.NFFirewall, nfa.NFLB}, "north-south payload")
}
func BenchmarkFig13_WestEast(b *testing.B) {
	benchCompiled(b, []string{nfa.NFIDS, nfa.NFMonitor, nfa.NFLB}, "west-east payload")
}

// --- §6.3.3: merger load balancing ---

func benchMergers(b *testing.B, mergers int) {
	srv := dataplane.New(dataplane.Config{PoolSize: 2048, Mergers: mergers})
	if err := srv.AddGraph(1, parGraph(nfa.NFMonitor, 2, false)); err != nil {
		b.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		b.Fatal(err)
	}
	pump(b, srv.Inject, srv.Pool(), srv.Output(), srv.Stop, "x")
}

func BenchmarkMergerLoadBalance_1Instance(b *testing.B)  { benchMergers(b, 1) }
func BenchmarkMergerLoadBalance_2Instances(b *testing.B) { benchMergers(b, 2) }
func BenchmarkMergerLoadBalance_4Instances(b *testing.B) { benchMergers(b, 4) }

// --- Ablations (DESIGN.md §5) ---

// Distributed NF runtime vs centralized switch on the same chain.
func BenchmarkAblation_DistributedRuntime(b *testing.B) {
	benchNFPGraph(b, seqGraph(nfa.NFL3Fwd, 3), "x")
}
func BenchmarkAblation_CentralSwitch(b *testing.B) {
	benchONVM(b, []string{nfa.NFL3Fwd, nfa.NFL3Fwd, nfa.NFL3Fwd}, "x")
}

// Header-only vs full copies for a 2-wide copied stage.
func BenchmarkAblation_HeaderOnlyCopy(b *testing.B) {
	benchNFPGraph(b, parGraph(nfa.NFMonitor, 2, true), "some longer payload that a full copy would duplicate per packet")
}
func BenchmarkAblation_FullCopy(b *testing.B) {
	g := parGraph(nfa.NFMonitor, 2, true).(graph.Par)
	g.FullCopy = []bool{false, true}
	benchNFPGraph(b, g, "some longer payload that a full copy would duplicate per packet")
}

// Dirty Memory Reusing on/off: the west-east stage with and without a
// shared original copy.
func BenchmarkAblation_DirtyReuse_On(b *testing.B) {
	res, err := core.Compile(policy.FromChain(nfa.NFIDS, nfa.NFMonitor, nfa.NFLB), nil, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	benchNFPGraph(b, res.Graph, "p")
}
func BenchmarkAblation_DirtyReuse_Off(b *testing.B) {
	opts := core.Options{}
	opts.Analysis.DisableDirtyMemoryReusing = true
	res, err := core.Compile(policy.FromChain(nfa.NFIDS, nfa.NFMonitor, nfa.NFLB), nil, opts)
	if err != nil {
		b.Fatal(err)
	}
	benchNFPGraph(b, res.Graph, "p")
}

// MO-based merging vs the §5.3 strawman (keep a pristine copy and XOR
// to discover modified bits). Packet-level microbenchmark.
func BenchmarkAblation_MergeOps(b *testing.B) {
	base := packet.Build(benchSpec(0, "merge operand payload"))
	mod := packet.Build(benchSpec(0, "merge operand payload"))
	mod.SetSrcIP(netip.MustParseAddr("10.100.0.1"))
	mod.Meta.Version = 2
	op := graph.MergeOp{
		Kind: graph.OpModify, SrcVersion: 2,
		SrcField: packet.FieldSrcIP, DstField: packet.FieldSrcIP,
	}
	_ = op
	src := mod.FieldBytes(packet.FieldSrcIP)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, _ := base.FieldRange(packet.FieldSrcIP)
		copy(base.Buffer()[r.Off:r.Off+r.Len], src)
	}
}

func BenchmarkAblation_XORMergeStrawman(b *testing.B) {
	orig := packet.Build(benchSpec(0, "merge operand payload"))
	mod := packet.Build(benchSpec(0, "merge operand payload"))
	mod.SetSrcIP(netip.MustParseAddr("10.100.0.1"))
	base := packet.Build(benchSpec(0, "merge operand payload"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The strawman scans the whole packet to find modified bits —
		// and needs the extra pristine copy the paper objects to.
		ob, mb, bb := orig.Bytes(), mod.Bytes(), base.Bytes()
		for j := range ob {
			if d := ob[j] ^ mb[j]; d != 0 {
				bb[j] ^= d
			}
		}
	}
}

// --- §7 cross-server scaling ---

// benchCluster measures per-packet cost of the north-south graph
// partitioned across two servers with an in-memory NSH link.
func BenchmarkCluster_TwoServers(b *testing.B) {
	res, err := core.Compile(policy.FromChain(nfa.NFVPN, nfa.NFMonitor, nfa.NFFirewall, nfa.NFLB), nil, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	c, err := cluster.New(res.Graph, cluster.Config{Capacity: 3})
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Start(); err != nil {
		b.Fatal(err)
	}
	pump(b, c.Inject, c.Pool(), c.Output(), c.Stop, "cross-server")
}

func BenchmarkCluster_SingleServerReference(b *testing.B) {
	res, err := core.Compile(policy.FromChain(nfa.NFVPN, nfa.NFMonitor, nfa.NFFirewall, nfa.NFLB), nil, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	benchNFPGraph(b, res.Graph, "cross-server")
}

// --- Flow fast path: exact-match microflow cache ---
//
// benchClassifierRules measures raw classification cost as the rule
// table grows: rules-1 never-matching rules ahead of one catch-all, so
// the slow path must rule out the whole table while the microflow cache
// resolves every warm flow in one hash probe. The tracked claim is
// flatness: Rules4096 within 1.25x of Rules16. (What a miss costs as
// the table grows is internal/ruleindex's BenchmarkLookupMiss_*.)
func benchClassifierRules(b *testing.B, rules int) {
	srv := dataplane.New(dataplane.Config{PoolSize: 64})
	cls := srv.Classifier()
	for i := 0; i < rules-1; i++ {
		// DstPort 9000+ never appears in bench traffic (DstPort 80).
		cls.AddRule(dataplane.Match{DstPort: uint16(9000 + i%50000)}, 2)
	}
	cls.AddRule(dataplane.Match{SrcPrefix: netip.MustParsePrefix("10.0.0.0/8")}, 1)

	const flows = 64
	pkts := make([]*packet.Packet, flows)
	for i := range pkts {
		pkts[i] = packet.New(make([]byte, 256))
		packet.BuildInto(pkts[i], benchSpec(i, "x"))
	}
	batch := make([]*packet.Packet, flows)
	copy(batch, pkts)
	if n := cls.ClassifyBatch(batch); n != flows { // warm the cache
		b.Fatalf("warmup classified %d of %d", n, flows)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i += flows {
		copy(batch, pkts)
		if n := cls.ClassifyBatch(batch); n != flows {
			b.Fatal("classification failed")
		}
	}
}

func BenchmarkClassifier_Rules16(b *testing.B)   { benchClassifierRules(b, 16) }
func BenchmarkClassifier_Rules256(b *testing.B)  { benchClassifierRules(b, 256) }
func BenchmarkClassifier_Rules4096(b *testing.B) { benchClassifierRules(b, 4096) }

// benchClassifierInstall measures what a control plane pays to program
// a table one rule at a time and get the first packet through it:
// rules × AddRule, then the first lookup, which compiles the index.
func benchClassifierInstall(b *testing.B, rules int) {
	p := packet.New(make([]byte, 256))
	packet.BuildInto(p, benchSpec(0, "x"))
	for i := 0; i < b.N; i++ {
		var c dataplane.Classifier
		for r := 0; r < rules-1; r++ {
			addr := netip.AddrFrom4([4]byte{172, 16 + byte(r>>16), byte(r >> 8), byte(r)})
			c.AddRule(dataplane.Match{SrcPrefix: netip.PrefixFrom(addr, 32)}, 2)
		}
		c.AddRule(dataplane.Match{DstPort: 80}, 1)
		if mid, ok := c.Classify(p); !ok || mid != 1 {
			b.Fatalf("first lookup = (%d, %v), want (1, true)", mid, ok)
		}
	}
}

func BenchmarkClassifierInstall_Rules1024(b *testing.B)  { benchClassifierInstall(b, 1024) }
func BenchmarkClassifierInstall_Rules65536(b *testing.B) { benchClassifierInstall(b, 65536) }
