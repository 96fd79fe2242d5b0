package dataplane

import (
	"net/netip"
	"runtime"
	"runtime/debug"
	"strconv"
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

// buildInto allocates a pool packet (waiting out transient exhaustion,
// as a paced generator would) and fills it from the spec.
func buildInto(t *testing.T, s *Server, spec packet.BuildSpec) *packet.Packet {
	t.Helper()
	p := s.Pool().Get()
	for p == nil {
		runtime.Gosched()
		p = s.Pool().Get()
	}
	packet.BuildInto(p, spec)
	return p
}

func spec(srcLastByte byte, sport uint16, payload string) packet.BuildSpec {
	return packet.BuildSpec{
		SrcIP:   netip.AddrFrom4([4]byte{10, 0, 0, srcLastByte}),
		DstIP:   netip.MustParseAddr("10.100.0.1"),
		Proto:   packet.ProtoTCP,
		SrcPort: sport, DstPort: 80,
		Payload: []byte(payload),
	}
}

// compileJoin compiles pol through the cost-free lookup, so the graph
// keeps every parallel stage Algorithm 1 proves correct however light
// its NFs, and fails the test when a parallel compile has no join left
// to exercise.
func compileJoin(t *testing.T, pol policy.Policy, opts core.Options) (*core.Result, error) {
	t.Helper()
	res, err := core.Compile(pol, nfa.LookupCostFree, opts)
	if err == nil && !opts.NoParallelism && graph.MaxDegree(res.Graph) < 2 {
		t.Fatalf("%v has no join to exercise", res.Graph)
	}
	return res, err
}

// runTraffic injects n packets built by mk and returns the outputs.
func runTraffic(t *testing.T, s *Server, n int, mk func(i int) packet.BuildSpec) []*packet.Packet {
	t.Helper()
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	var outputs []*packet.Packet
	var mu sync.Mutex
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := range s.Output() {
			mu.Lock()
			outputs = append(outputs, p)
			mu.Unlock()
		}
	}()
	for i := 0; i < n; i++ {
		pkt := buildInto(t, s, mk(i))
		if !s.Inject(pkt) {
			t.Fatal("classification failed")
		}
	}
	s.Stop()
	<-done
	return outputs
}

func TestSequentialChainEndToEnd(t *testing.T) {
	mon := nf.NewMonitor()
	fwd, _ := nf.NewL3Forwarder(100)
	g := graph.Seq{Items: []graph.Node{
		nfn(nfa.NFMonitor, 0), nfn(nfa.NFL3Fwd, 0),
	}}
	s := New(Config{PoolSize: 64})
	err := s.AddGraphInstances(7, g, map[graph.NF]nf.NF{
		nfn(nfa.NFMonitor, 0): mon,
		nfn(nfa.NFL3Fwd, 0):   fwd,
	})
	if err != nil {
		t.Fatal(err)
	}
	outs := runTraffic(t, s, 50, func(i int) packet.BuildSpec {
		return spec(byte(i%5), uint16(1000+i%5), "payload")
	})
	if len(outs) != 50 {
		t.Fatalf("outputs = %d", len(outs))
	}
	for _, p := range outs {
		if p.Meta.MID != 7 || p.Meta.Version != 1 {
			t.Errorf("meta = %v", p.Meta)
		}
		p.Free()
	}
	if mon.Total().Packets != 50 {
		t.Errorf("monitor saw %d", mon.Total().Packets)
	}
	if fwd.Lookups() != 50 {
		t.Errorf("forwarder saw %d", fwd.Lookups())
	}
	st := s.Stats()
	if st.Injected != 50 || st.Outputs != 50 || st.Drops != 0 || st.Copies != 0 {
		t.Errorf("stats = %+v", st)
	}
	if s.Pool().Available() != 64 {
		t.Errorf("pool leak: %d/64 available", s.Pool().Available())
	}
}

func TestSharedParallelNoCopy(t *testing.T) {
	// Monitor || Firewall sharing one copy (the Fig 1(b) middle stage).
	mon := nf.NewMonitor()
	fw, _ := nf.NewFirewall(nf.DefaultACLSize)
	g := graph.Par{Branches: []graph.Node{
		nfn(nfa.NFMonitor, 0), nfn(nfa.NFFirewall, 0),
	}}
	s := New(Config{PoolSize: 64})
	if err := s.AddGraphInstances(1, g, map[graph.NF]nf.NF{
		nfn(nfa.NFMonitor, 0):  mon,
		nfn(nfa.NFFirewall, 0): fw,
	}); err != nil {
		t.Fatal(err)
	}
	outs := runTraffic(t, s, 40, func(i int) packet.BuildSpec {
		return spec(1, 2000, "x")
	})
	if len(outs) != 40 {
		t.Fatalf("outputs = %d", len(outs))
	}
	for _, p := range outs {
		p.Free()
	}
	st := s.Stats()
	if st.Copies != 0 {
		t.Errorf("copies = %d, want 0 (shared group)", st.Copies)
	}
	if mon.Total().Packets != 40 {
		t.Errorf("monitor saw %d", mon.Total().Packets)
	}
	passed, _ := fw.Stats()
	if passed != 40 {
		t.Errorf("firewall passed %d", passed)
	}
	if s.Pool().Available() != 64 {
		t.Errorf("pool leak: %d/64", s.Pool().Available())
	}
}

func TestParallelDropReconciliation(t *testing.T) {
	// A denying firewall in parallel with a monitor: every packet is
	// dropped at the join, no outputs, no buffer leaks, and the
	// monitor still counted everything (it ran in parallel).
	deny := nf.NewFirewallFromRules(nil, nf.Deny)
	mon := nf.NewMonitor()
	g := graph.Par{Branches: []graph.Node{
		nfn(nfa.NFMonitor, 0), nfn(nfa.NFFirewall, 0),
	}}
	s := New(Config{PoolSize: 32})
	if err := s.AddGraphInstances(1, g, map[graph.NF]nf.NF{
		nfn(nfa.NFMonitor, 0):  mon,
		nfn(nfa.NFFirewall, 0): deny,
	}); err != nil {
		t.Fatal(err)
	}
	outs := runTraffic(t, s, 30, func(i int) packet.BuildSpec {
		return spec(1, 1, "y")
	})
	if len(outs) != 0 {
		t.Fatalf("outputs = %d, want 0", len(outs))
	}
	st := s.Stats()
	if st.Drops != 30 {
		t.Errorf("drops = %d", st.Drops)
	}
	if mon.Total().Packets != 30 {
		t.Errorf("monitor saw %d", mon.Total().Packets)
	}
	if s.Pool().Available() != 32 {
		t.Errorf("pool leak: %d/32", s.Pool().Available())
	}
}

func TestCopyMergeAppliesLBWrites(t *testing.T) {
	// The west-east middle stage: Monitor on v1, LB on a header-only
	// copy; the merge must pull the LB's rewritten addresses into the
	// output while the monitor counted the ORIGINAL addresses.
	pol := policy.FromChain(nfa.NFIDS, nfa.NFMonitor, nfa.NFLB)
	res, err := compileJoin(t, pol, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mon := nf.NewMonitor()
	lb, _ := nf.NewLoadBalancer(nf.DefaultBackendCount)
	ids, _ := nf.NewIDS(10, true)
	s := New(Config{PoolSize: 64})
	if err := s.AddGraphInstances(1, res.Graph, map[graph.NF]nf.NF{
		nfn(nfa.NFMonitor, 0): mon,
		nfn(nfa.NFLB, 0):      lb,
		nfn(nfa.NFIDS, 0):     ids,
	}); err != nil {
		t.Fatal(err)
	}

	orig := spec(9, 3333, "clean payload")
	outs := runTraffic(t, s, 20, func(i int) packet.BuildSpec { return orig })
	if len(outs) != 20 {
		t.Fatalf("outputs = %d", len(outs))
	}
	origKey := packet.FlowKey{
		Src: orig.SrcIP.As4(), Dst: orig.DstIP.As4(),
		SrcPort: orig.SrcPort, DstPort: orig.DstPort, Proto: packet.ProtoTCP,
	}
	wantBackend := lb.Backend(origKey)
	for _, p := range outs {
		if p.DstIP() != wantBackend {
			t.Errorf("output dst = %v, want %v", p.DstIP(), wantBackend)
		}
		if p.SrcIP() != netip.MustParseAddr("10.100.0.1") {
			t.Errorf("output src = %v, want LB VIP", p.SrcIP())
		}
		// Payload must be intact even though the LB branch got a
		// header-only copy.
		if string(p.Payload()) != "clean payload" {
			t.Errorf("payload = %q", p.Payload())
		}
		// The merged output is wire-valid: the merger refreshed the
		// L4 checksum after pulling in the LB's address rewrites.
		if !p.VerifyL4Checksum() {
			t.Error("merged output has an invalid TCP checksum")
		}
		p.Free()
	}
	// The monitor observed the pre-LB addresses (sequential semantics).
	if _, ok := mon.Flow(origKey); !ok {
		t.Error("monitor did not see the original flow")
	}
	st := s.Stats()
	if st.Copies != 20 {
		t.Errorf("copies = %d, want 20 (one per packet)", st.Copies)
	}
	// Header-only copy: well under the full frame size per copy.
	if st.CopiedBytes != 20*54 {
		t.Errorf("copied bytes = %d, want %d", st.CopiedBytes, 20*54)
	}
	if s.Pool().Available() != 64 {
		t.Errorf("pool leak: %d/64", s.Pool().Available())
	}
}

func TestInlineIDSDropsAttackTraffic(t *testing.T) {
	pol := policy.FromChain(nfa.NFIDS, nfa.NFMonitor, nfa.NFLB)
	res, err := compileJoin(t, pol, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{PoolSize: 64})
	if err := s.AddGraph(1, res.Graph); err != nil {
		t.Fatal(err)
	}
	outs := runTraffic(t, s, 30, func(i int) packet.BuildSpec {
		if i%3 == 0 {
			return spec(1, uint16(i), "bad SIG-0007-ATTACK bytes")
		}
		return spec(1, uint16(i), "good bytes")
	})
	if len(outs) != 20 {
		t.Fatalf("outputs = %d, want 20", len(outs))
	}
	for _, p := range outs {
		p.Free()
	}
	if st := s.Stats(); st.Drops != 10 {
		t.Errorf("drops = %d, want 10", st.Drops)
	}
	if s.Pool().Available() != 64 {
		t.Errorf("pool leak: %d/64", s.Pool().Available())
	}
}

func TestVPNMergeSplicesAH(t *testing.T) {
	// Monitor || VPN with a copy: the VPN owns v1 (payload-touching);
	// monitor reads a header-only copy; output must be encapsulated.
	pol := policy.FromChain(nfa.NFMonitor, nfa.NFVPN)
	res, err := compileJoin(t, pol, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{PoolSize: 64})
	if err := s.AddGraph(1, res.Graph); err != nil {
		t.Fatal(err)
	}
	outs := runTraffic(t, s, 10, func(i int) packet.BuildSpec {
		return spec(3, 1234, "secret data")
	})
	if len(outs) != 10 {
		t.Fatalf("outputs = %d", len(outs))
	}
	for _, p := range outs {
		if !p.HasAH() {
			t.Error("output not encapsulated")
		}
		if string(p.Payload()) == "secret data" {
			t.Error("payload not encrypted")
		}
		p.Free()
	}
	if s.Pool().Available() != 64 {
		t.Errorf("pool leak: %d/64", s.Pool().Available())
	}
}

// TestMergerLoadBalancing: a join's load is the tails it takes, counted
// per shard (Stats.MergerLoad) and per join (nfp_merger_*{mid,join}).
// With two parallel stages in a row each join has a series set of its
// own, which took every packet's two tails and merged every packet.
func TestMergerLoadBalancing(t *testing.T) {
	g := graph.Seq{Items: []graph.Node{
		graph.Par{Branches: []graph.Node{nfn(nfa.NFMonitor, 0), nfn(nfa.NFMonitor, 1)}},
		graph.Par{Branches: []graph.Node{nfn(nfa.NFMonitor, 2), nfn(nfa.NFMonitor, 3)}},
	}}
	const n = 200
	s := New(Config{PoolSize: 256})
	if err := s.AddGraph(1, g); err != nil {
		t.Fatal(err)
	}
	outs := runTraffic(t, s, n, func(i int) packet.BuildSpec {
		return spec(byte(i), uint16(i), "z")
	})
	for _, p := range outs {
		p.Free()
	}
	if st := s.Stats(); len(st.MergerLoad) != 1 || st.MergerLoad[0] != 4*n {
		t.Fatalf("merger load = %v, want one shard's %d tails", st.MergerLoad, 4*n)
	}
	snap := s.Telemetry().Snapshot()
	for _, join := range []string{"0", "1"} {
		labels := []telemetry.Label{telemetry.L("mid", "1"), telemetry.L("join", join)}
		processed := snap.CounterValue("nfp_merger_processed_total", labels...)
		merged := snap.CounterValue("nfp_merger_merged_total", labels...)
		if processed != 2*n || merged != n {
			t.Errorf("join %s took %d tails and merged %d packets, want %d and %d", join, processed, merged, 2*n, n)
		}
		if live := snap.GaugeValue("nfp_merger_at_size", labels...); live != 0 {
			t.Errorf("join %s holds %d entries after the run", join, live)
		}
	}
}

// TestShardedMergerLoad: each shard's joins count into series of their
// own (labelled shard=<i>) and into the shard's entry of
// Stats.MergerLoad, so the loads add up to every packet's tails once —
// not twice, as when two shards shared one counter.
func TestShardedMergerLoad(t *testing.T) {
	g := graph.Par{Branches: []graph.Node{
		nfn(nfa.NFMonitor, 0), nfn(nfa.NFMonitor, 1),
	}}
	const n, shards, tails = 400, 2, 2 // a tail per branch
	s := New(Config{PoolSize: 512, Shards: shards})
	if err := s.AddGraph(1, g); err != nil {
		t.Fatal(err)
	}
	if got := runShardTraffic(t, s, n, func(i int) packet.BuildSpec { return shardSpec(i%40, i/40) }); got != n {
		t.Fatalf("collected %d outputs, want %d", got, n)
	}
	st := s.Stats()
	snap := s.Telemetry().Snapshot()
	var load uint64
	for i, l := range st.MergerLoad {
		load += l
		series := snap.CounterValue("nfp_merger_processed_total",
			telemetry.L("mid", "1"), telemetry.L("join", "0"), telemetry.L("shard", strconv.Itoa(i)))
		if l == 0 || l != series {
			t.Errorf("shard %d took %d tails, its join series %d: want the same, and some", i, l, series)
		}
	}
	if len(st.MergerLoad) != shards || load != n*tails {
		t.Errorf("merger load %v sums to %d over %d shards, want %d over %d",
			st.MergerLoad, load, len(st.MergerLoad), n*tails, shards)
	}
	series := map[string]bool{}
	for _, c := range snap.Counters {
		if c.Name == "nfp_merger_processed_total" {
			series[c.Labels["shard"]+"/"+c.Labels["join"]] = true
		}
	}
	if len(series) != shards || !series["0/0"] || !series["1/0"] {
		t.Errorf("nfp_merger_processed_total series (shard/join) %v, want one per shard", series)
	}
	if got := snap.SumCounters("nfp_merger_processed_total"); got != n*tails {
		t.Errorf("nfp_merger_processed_total sums to %d, want %d", got, n*tails)
	}
}

func TestClassifierRoutesToGraphs(t *testing.T) {
	monA := nf.NewMonitor()
	monB := nf.NewMonitor()
	s := New(Config{PoolSize: 64})
	if err := s.AddGraphInstances(1, nfn(nfa.NFMonitor, 0), map[graph.NF]nf.NF{
		nfn(nfa.NFMonitor, 0): monA,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddGraphInstances(2, nfn(nfa.NFMonitor, 0), map[graph.NF]nf.NF{
		nfn(nfa.NFMonitor, 0): monB,
	}); err != nil {
		t.Fatal(err)
	}
	s.Classifier().AddRule(Match{DstPort: 443}, 2)
	s.Classifier().SetDefault(1)

	outs := runTraffic(t, s, 30, func(i int) packet.BuildSpec {
		sp := spec(1, uint16(i), "q")
		if i%3 == 0 {
			sp.DstPort = 443
		}
		return sp
	})
	for _, p := range outs {
		p.Free()
	}
	if monB.Total().Packets != 10 {
		t.Errorf("graph 2 saw %d, want 10", monB.Total().Packets)
	}
	if monA.Total().Packets != 20 {
		t.Errorf("graph 1 saw %d, want 20", monA.Total().Packets)
	}
}

func TestServerLifecycleErrors(t *testing.T) {
	s := New(Config{PoolSize: 8})
	if err := s.Start(); err == nil {
		t.Error("Start with no graphs succeeded")
	}
	if err := s.AddGraph(1, nfn(nfa.NFMonitor, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddGraph(1, nfn(nfa.NFMonitor, 0)); err == nil {
		t.Error("duplicate MID accepted")
	}
	if err := s.AddGraph(2, nfn("no-such-nf", 0)); err == nil {
		t.Error("unknown NF accepted")
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err == nil {
		t.Error("double Start succeeded")
	}
	s.Stop()
	s.Stop() // idempotent
	if err := s.AddGraph(3, nfn(nfa.NFMonitor, 0)); err == nil {
		t.Error("AddGraph after Stop succeeded")
	}
}

// TestStopConcurrent: Stop racing Stop. The stopped check must hold
// under the control-plane lock or the loser closes the output channels a
// second time. Every call must return, with the server stopped once.
func TestStopConcurrent(t *testing.T) {
	for round := 0; round < 20; round++ {
		s := New(Config{PoolSize: 64, Shards: 2})
		if err := s.AddGraph(1, nfn(nfa.NFMonitor, 0)); err != nil {
			t.Fatal(err)
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		col := collectOutputs(s)
		for i := 0; i < 16; i++ {
			if !s.Inject(buildInto(t, s, shardSpec(i, 0))) {
				t.Fatal("inject failed")
			}
		}
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.Stop()
			}()
		}
		wg.Wait()
		if got := col.wait(); got != 16 {
			t.Fatalf("collected %d outputs, want 16", got)
		}
	}
}

// TestLiveScaleOut exercises the §7 elasticity path: while traffic
// flows through one graph instance, the operator installs a second
// instance under a new MID and prepends a classifier rule redirecting
// part of the flows — with zero packet loss.
func TestLiveScaleOut(t *testing.T) {
	monA := nf.NewMonitor()
	monB := nf.NewMonitor()
	s := New(Config{PoolSize: 128})
	if err := s.AddGraphInstances(1, nfn(nfa.NFMonitor, 0), map[graph.NF]nf.NF{
		nfn(nfa.NFMonitor, 0): monA,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	received := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := range s.Output() {
			received++
			p.Free()
		}
	}()

	send := func(n int, dstPort uint16) {
		for i := 0; i < n; i++ {
			pkt := buildInto(t, s, packet.BuildSpec{
				SrcIP:   netip.AddrFrom4([4]byte{10, 0, 0, byte(1 + i%8)}),
				DstIP:   netip.MustParseAddr("10.100.0.1"),
				Proto:   packet.ProtoTCP,
				SrcPort: uint16(1000 + i), DstPort: dstPort,
				Payload: []byte("scale"),
			})
			if !s.Inject(pkt) {
				t.Error("inject failed")
			}
		}
	}
	send(40, 80) // phase 1: everything to instance A

	// Scale out: new instance under MID 2, redirect port-443 flows.
	if err := s.AddGraphInstances(2, nfn(nfa.NFMonitor, 0), map[graph.NF]nf.NF{
		nfn(nfa.NFMonitor, 0): monB,
	}); err != nil {
		t.Fatalf("live AddGraph: %v", err)
	}
	s.Classifier().PrependRule(Match{DstPort: 443}, 2)

	send(30, 443) // phase 2: redirected flows
	send(10, 80)  // port 80 still goes to A

	s.Stop()
	<-done
	if received != 80 {
		t.Fatalf("outputs = %d, want 80 (zero loss across scale-out)", received)
	}
	if monA.Total().Packets != 50 {
		t.Errorf("instance A saw %d, want 50", monA.Total().Packets)
	}
	if monB.Total().Packets != 30 {
		t.Errorf("instance B saw %d, want 30", monB.Total().Packets)
	}
}

func TestNodeRuntimeLookup(t *testing.T) {
	s := New(Config{PoolSize: 8})
	if err := s.AddGraph(1, nfn(nfa.NFMonitor, 0)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.NodeRuntime(1, nfn(nfa.NFMonitor, 0)); !ok {
		t.Error("instance not found")
	}
	if _, ok := s.NodeRuntime(1, nfn("x", 0)); ok {
		t.Error("phantom instance found")
	}
	if _, ok := s.NodeRuntime(9, nfn(nfa.NFMonitor, 0)); ok {
		t.Error("phantom MID found")
	}
}

func TestClassifierMatchSemantics(t *testing.T) {
	k := packet.FlowKey{
		Src:     [4]byte{10, 0, 0, 1},
		Dst:     [4]byte{192, 168, 1, 1},
		SrcPort: 1000, DstPort: 80, Proto: packet.ProtoTCP,
	}
	cases := []struct {
		m    Match
		want bool
	}{
		{Match{}, true},
		{Match{SrcPrefix: netip.MustParsePrefix("10.0.0.0/8")}, true},
		{Match{SrcPrefix: netip.MustParsePrefix("11.0.0.0/8")}, false},
		{Match{DstPrefix: netip.MustParsePrefix("192.168.0.0/16"), DstPort: 80}, true},
		{Match{DstPort: 81}, false},
		{Match{Proto: packet.ProtoUDP}, false},
		{Match{Proto: packet.ProtoTCP, SrcPort: 1000}, true},
	}
	for i, c := range cases {
		if got := c.m.Covers(k); got != c.want {
			t.Errorf("case %d: Covers = %v, want %v", i, got, c.want)
		}
	}
}

// TestLiveScaleOutWithStateMigration completes the §7 scaling recipe:
// create the new instance, MIGRATE the state, then redirect flows —
// the new instance answers with full history.
func TestLiveScaleOutWithStateMigration(t *testing.T) {
	monA := nf.NewMonitor()
	monB := nf.NewMonitor()
	s := New(Config{PoolSize: 64})
	if err := s.AddGraphInstances(1, nfn(nfa.NFMonitor, 0), map[graph.NF]nf.NF{
		nfn(nfa.NFMonitor, 0): monA,
	}); err != nil {
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
	theFlow := func() packet.BuildSpec {
		return packet.BuildSpec{
			SrcIP:   netip.MustParseAddr("10.0.0.7"),
			DstIP:   netip.MustParseAddr("10.100.0.1"),
			Proto:   packet.ProtoTCP,
			SrcPort: 7777, DstPort: 443,
			Payload: []byte("m"),
		}
	}
	for i := 0; i < 25; i++ {
		if !s.Inject(buildInto(t, s, theFlow())) {
			t.Fatal("inject")
		}
	}

	// Quiesce the source before migrating (the OpenNF discipline): all
	// phase-1 packets must have cleared instance A.
	for s.Stats().Outputs < 25 {
		runtime.Gosched()
	}

	// Scale out with migration before the redirect.
	if err := s.AddGraphInstances(2, nfn(nfa.NFMonitor, 0), map[graph.NF]nf.NF{
		nfn(nfa.NFMonitor, 0): monB,
	}); err != nil {
		t.Fatal(err)
	}
	if err := nf.Migrate(monA, monB); err != nil {
		t.Fatal(err)
	}
	s.Classifier().PrependRule(Match{DstPort: 443}, 2)
	for i := 0; i < 15; i++ {
		if !s.Inject(buildInto(t, s, theFlow())) {
			t.Fatal("inject")
		}
	}
	s.Stop()
	<-done

	k := packet.FlowKey{
		Src: [4]byte{10, 0, 0, 7}, Dst: [4]byte{10, 100, 0, 1},
		SrcPort: 7777, DstPort: 443, Proto: packet.ProtoTCP,
	}
	st, ok := monB.Flow(k)
	if !ok || st.Packets < 40 {
		t.Errorf("instance B flow counters = %+v (want ≥40: 25 migrated + 15 live)", st)
	}
}

// BenchmarkServerSetup is the set-up of a server shaped like the repo
// benchmark's fwd64 workload: New with a 4096-buffer pool, one
// destination-port rule, AddGraph of five l3fwd, Start and Stop. It
// reports allocs/op, and fails when a server at PoolSize 4096 allocates
// more than one at 512: the pool's descriptors are one array, so no
// part of a set-up allocates per buffer.
func BenchmarkServerSetup(b *testing.B) {
	var fwd graph.Seq
	for i := range 5 {
		fwd.Items = append(fwd.Items, nfn(nfa.NFL3Fwd, i))
	}
	setup := func(poolSize int) {
		s := New(Config{PoolSize: poolSize})
		s.Classifier().AddRule(Match{DstPort: 80}, 1)
		if err := s.AddGraph(1, fwd); err != nil {
			b.Fatal(err)
		}
		if err := s.Start(); err != nil {
			b.Fatal(err)
		}
		s.Stop()
	}
	// A collection that lands inside a count adds a few objects of its
	// own, and a bigger pool brings one on sooner: count with it off.
	gc := debug.SetGCPercent(-1)
	small := testing.AllocsPerRun(5, func() { setup(512) })
	large := testing.AllocsPerRun(5, func() { setup(4096) })
	debug.SetGCPercent(gc)
	if large > small {
		b.Fatalf("a server allocates %.0f objects at PoolSize 4096 and %.0f at 512, want no more", large, small)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		setup(4096)
	}
}
