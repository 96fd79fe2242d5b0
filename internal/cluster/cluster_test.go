package cluster

import (
	"net/netip"
	"runtime"
	"strings"
	"testing"

	"nfp/internal/core"
	"nfp/internal/graph"
	"nfp/internal/nfa"
	"nfp/internal/packet"
	"nfp/internal/policy"
)

// compileJoin compiles a chain through the cost-free lookup — the
// paper's graph, every parallel stage Algorithm 1 proves correct kept —
// and fails the test when no join is left to partition across servers.
func compileJoin(t *testing.T, names ...string) (*core.Result, error) {
	t.Helper()
	res, err := core.Compile(policy.FromChain(names...), nfa.LookupCostFree, core.Options{})
	if err == nil && graph.MaxDegree(res.Graph) < 2 {
		t.Fatalf("%v has no join to exercise", res.Graph)
	}
	return res, err
}

func testPacket(i int, payload string) packet.BuildSpec {
	return packet.BuildSpec{
		SrcIP:   netip.AddrFrom4([4]byte{10, 0, 0, byte(1 + i%8)}),
		DstIP:   netip.MustParseAddr("10.100.0.1"),
		Proto:   packet.ProtoTCP,
		SrcPort: uint16(3000 + i%32), DstPort: 80,
		Payload: []byte(payload),
	}
}

func TestNSHRoundTrip(t *testing.T) {
	p := packet.Build(testPacket(1, "nsh payload"))
	orig := append([]byte(nil), p.Bytes()...)
	h := NSH{
		ServicePathID: 0xabcde,
		ServiceIndex:  3,
		Meta:          packet.Meta{MID: 7, PID: 123456789, Version: 1},
	}
	if err := EncapNSH(p, h); err != nil {
		t.Fatal(err)
	}
	if !IsNSH(p.Bytes()) {
		t.Fatal("ethertype not NSH after encap")
	}
	if p.Len() != len(orig)+NSHLen {
		t.Errorf("len = %d, want %d", p.Len(), len(orig)+NSHLen)
	}
	got, err := DecapNSH(p)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("decap = %+v, want %+v", got, h)
	}
	if string(p.Bytes()) != string(orig) {
		t.Error("packet corrupted by NSH round trip")
	}
	if IsNSH(p.Bytes()) {
		t.Error("still NSH after decap")
	}
}

func TestNSHDecapErrors(t *testing.T) {
	// Not NSH.
	p := packet.Build(testPacket(0, "x"))
	if _, err := DecapNSH(p); err == nil {
		t.Error("decap of plain packet succeeded")
	}
	// Truncated.
	if _, err := DecapNSH(packet.New(make([]byte, 10))); err == nil {
		t.Error("decap of truncated packet succeeded")
	}
}

func TestPartitionRespectsCapacityAndCuts(t *testing.T) {
	mk := func(n string, i int) graph.NF { return graph.NF{Name: n, Instance: i} }
	g := graph.Seq{Items: []graph.Node{
		mk(nfa.NFVPN, 0),
		graph.Par{Branches: []graph.Node{mk(nfa.NFMonitor, 0), mk(nfa.NFFirewall, 0)}},
		mk(nfa.NFLB, 0),
		mk(nfa.NFMonitor, 1),
	}}
	segs, err := Partition(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("segments = %d: %v", len(segs), segs)
	}
	// The parallel stage must stay whole inside one segment.
	if segs[0].NFs != 3 || segs[1].NFs != 2 {
		t.Errorf("NFs per segment = %d,%d", segs[0].NFs, segs[1].NFs)
	}
	for _, h := range CopiesPerHop(segs) {
		if h != 1 {
			t.Errorf("copies per hop = %d, want 1", h)
		}
	}
	total := 0
	for _, s := range segs {
		total += graph.NFCount(s.Graph)
	}
	if total != 5 {
		t.Errorf("NFs lost in partition: %d", total)
	}
}

func TestPartitionErrors(t *testing.T) {
	mk := func(i int) graph.NF { return graph.NF{Name: nfa.NFMonitor, Instance: i} }
	wide := graph.Par{Branches: []graph.Node{mk(0), mk(1), mk(2), mk(3)}}
	if _, err := Partition(wide, 3); err == nil ||
		!strings.Contains(err.Error(), "cannot be split") {
		t.Errorf("wide stage err = %v", err)
	}
	if _, err := Partition(mk(0), 0); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := Partition(graph.Seq{}, 4); err == nil {
		t.Error("invalid graph accepted")
	}
	// A graph that fits one server yields one segment.
	segs, err := Partition(wide, 8)
	if err != nil || len(segs) != 1 {
		t.Errorf("single-segment partition = %v, %v", segs, err)
	}
}

// runCluster pushes n packets through a cluster and returns outputs.
func runCluster(t *testing.T, c *Cluster, n int, payload string) map[uint64][]byte {
	t.Helper()
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	outputs := map[uint64][]byte{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := range c.Output() {
			outputs[p.Meta.PID] = append([]byte(nil), p.Bytes()...)
			p.Free()
		}
	}()
	for i := 0; i < n; i++ {
		pkt := c.Pool().Get()
		for pkt == nil {
			runtime.Gosched()
			pkt = c.Pool().Get()
		}
		packet.BuildInto(pkt, testPacket(i, payload))
		if !c.Inject(pkt) {
			t.Fatal("inject failed")
		}
	}
	c.Stop()
	<-done
	return outputs
}

// TestClusterEndToEnd runs the paper's north-south graph partitioned
// across two servers and verifies full-path semantics: the output is
// VPN-encapsulated AND LB-rewritten, with one copy per hop.
func TestClusterEndToEnd(t *testing.T) {
	res, err := compileJoin(t, nfa.NFVPN, nfa.NFMonitor, nfa.NFFirewall, nfa.NFLB)
	if err != nil {
		t.Fatal(err)
	}
	var links []*ChanLink
	c, err := New(res.Graph, Config{
		Capacity: 3,
		NewLink: func(int) Link {
			l := NewChanLink(256)
			links = append(links, l)
			return l
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Servers() != 2 {
		t.Fatalf("servers = %d, want 2 (3 NFs + 1 NF at capacity 3)", c.Servers())
	}

	const n = 60
	outputs := runCluster(t, c, n, "cross-server payload")
	if len(outputs) != n {
		t.Fatalf("outputs = %d", len(outputs))
	}
	for pid, b := range outputs {
		p := packet.New(b)
		if !p.HasAH() {
			t.Errorf("pid %d not VPN-encapsulated", pid)
		}
		src := p.SrcIP().As4()
		if src[0] != 10 || src[1] != 100 {
			t.Errorf("pid %d not LB-rewritten: src %v", pid, p.SrcIP())
		}
	}
	st := c.Stats()
	if st.Injected != n || st.Outputs != n || st.HopDrops != 0 {
		t.Errorf("stats = %+v", st)
	}
	// One copy per packet per hop: the link carried exactly n frames.
	frames, bytes := links[0].Stats()
	if frames != n {
		t.Errorf("link frames = %d, want %d (one copy per hop)", frames, n)
	}
	if bytes == 0 {
		t.Error("no bytes metered")
	}
}

// TestClusterMatchesSingleServer replays the same traffic through a
// partitioned cluster and a single server and compares outputs.
func TestClusterMatchesSingleServer(t *testing.T) {
	res, err := compileJoin(t, nfa.NFIDS, nfa.NFMonitor, nfa.NFLB)
	if err != nil {
		t.Fatal(err)
	}
	// Cluster: one NF per server (maximal partitioning: IDS || stage).
	c2, err := New(res.Graph, Config{Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	if c2.Servers() != 2 {
		t.Fatalf("servers = %d", c2.Servers())
	}
	clustered := runCluster(t, c2, 40, "equivalence across servers")

	single, err := New(res.Graph, Config{Capacity: 10})
	if err != nil {
		t.Fatal(err)
	}
	if single.Servers() != 1 {
		t.Fatalf("single servers = %d", single.Servers())
	}
	alone := runCluster(t, single, 40, "equivalence across servers")

	if len(clustered) != len(alone) {
		t.Fatalf("output counts differ: %d vs %d", len(clustered), len(alone))
	}
	for pid, b := range alone {
		if string(clustered[pid]) != string(b) {
			t.Errorf("pid %d differs across deployments", pid)
		}
	}
}

// TestClusterDropsPropagate verifies that an inline IDS dropping on the
// first server prevents any downstream transmission for that packet.
func TestClusterDropsPropagate(t *testing.T) {
	res, err := compileJoin(t, nfa.NFIDS, nfa.NFMonitor, nfa.NFLB)
	if err != nil {
		t.Fatal(err)
	}
	var link *ChanLink
	c, err := New(res.Graph, Config{
		Capacity: 2,
		NewLink:  func(int) Link { link = NewChanLink(64); return link },
	})
	if err != nil {
		t.Fatal(err)
	}
	outputs := runCluster(t, c, 30, "bad SIG-0001-ATTACK traffic")
	if len(outputs) != 0 {
		t.Fatalf("outputs = %d, want 0", len(outputs))
	}
	st := c.Stats()
	if st.Drops != 30 {
		t.Errorf("drops = %d", st.Drops)
	}
	// Dropped packets never hit the wire: zero bandwidth wasted.
	frames, _ := link.Stats()
	if frames != 0 {
		t.Errorf("link carried %d frames for dropped packets", frames)
	}
}

func TestChanLinkClose(t *testing.T) {
	l := NewChanLink(4)
	if err := l.Send([]byte("a")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l.Close() // idempotent
	if err := l.Send([]byte("b")); err == nil {
		t.Error("send on closed link succeeded")
	}
	// The queued frame is still deliverable.
	if f, ok := <-l.Frames(); !ok || string(f) != "a" {
		t.Error("queued frame lost")
	}
	if _, ok := <-l.Frames(); ok {
		t.Error("channel not closed")
	}
}

// TestClusterIngressRejectsPreclassifiedForgedVersion feeds the
// inter-server link a well-formed NSH frame whose carried metadata names
// a copy version the downstream graph does not start from. The wire is
// outside input: the frame must be counted as a hop drop and its buffer
// reclaimed, not taken into the dataplane (where a version the dispatch
// lists do not know used to panic the ingress goroutine).
func TestClusterIngressRejectsPreclassifiedForgedVersion(t *testing.T) {
	res, err := compileJoin(t, nfa.NFVPN, nfa.NFMonitor, nfa.NFFirewall, nfa.NFLB)
	if err != nil {
		t.Fatal(err)
	}
	var links []*ChanLink
	c, err := New(res.Graph, Config{
		Capacity: 3,
		NewLink: func(int) Link {
			l := NewChanLink(256)
			links = append(links, l)
			return l
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	forged := packet.Build(testPacket(0, "forged"))
	if err := EncapNSH(forged, NSH{
		ServicePathID: 1, ServiceIndex: 1,
		Meta: packet.Meta{MID: clusterMID, PID: 4242, Version: 3},
	}); err != nil {
		t.Fatal(err)
	}
	if err := links[0].Send(forged.Bytes()); err != nil {
		t.Fatal(err)
	}

	const n = 40
	outputs := runCluster(t, c, n, "beside a forged frame")
	if len(outputs) != n {
		t.Fatalf("outputs = %d, want %d", len(outputs), n)
	}
	if _, ok := outputs[4242]; ok {
		t.Error("forged frame surfaced as an output")
	}
	if st := c.Stats(); st.HopDrops != 1 || st.Outputs != n {
		t.Errorf("stats = %+v, want 1 hop drop and %d outputs", st, n)
	}
	for i, st := range c.ServerStats() {
		if st.Pool.InUse != 0 {
			t.Errorf("server %d holds %d buffers after Stop", i, st.Pool.InUse)
		}
	}
}
