package nf

import (
	"bytes"
	"fmt"
	"net/netip"
	"runtime"
	"testing"

	"nfp/internal/flow"
	"nfp/internal/flowtab"
	"nfp/internal/packet"
)

func udpPacket(src, dst string, sp, dp uint16, payload []byte) *packet.Packet {
	return packet.Build(packet.BuildSpec{
		SrcIP: netip.MustParseAddr(src), DstIP: netip.MustParseAddr(dst),
		Proto: packet.ProtoUDP, SrcPort: sp, DstPort: dp, Payload: payload,
	})
}

// flowPacket retargets one reusable packet at flow i of a population:
// the storm tests and benchmarks need millions of distinct 5-tuples,
// not millions of buffers. Space 0 is established traffic, space 1 the
// storm; the two never collide.
type flowPacket struct {
	p    *packet.Packet
	orig []byte
}

func newFlowPacket() *flowPacket {
	p := tcpPacket("10.0.0.1", "198.51.100.7", 1, 80, []byte("storm"))
	return &flowPacket{p: p, orig: append([]byte(nil), p.Bytes()...)}
}

func (f *flowPacket) flow(space, i int) *packet.Packet {
	copy(f.p.Bytes(), f.orig) // an NF may have rewritten the last one
	f.p.Invalidate()
	k, _ := f.p.FlowKey()
	k.Src = [4]byte{10, byte(space<<6 | i>>16), byte(i >> 8), byte(i)}
	k.SrcPort = uint16(1024 + i%50000)
	f.p.SetTuple(k)
	return f.p
}

// TestNewFlowStorm floods a monitor and a NAT with four times their
// ceiling in never-seen flows while 1024 established flows keep
// sending. Established state must come through intact — every counter,
// every binding — occupancy must never pass the ceiling, the bound must
// be counted as hit, and the heap must stop growing once the tables are
// full: flat across the second half of the storm.
func TestNewFlowStorm(t *testing.T) {
	t.Run("scaled", func(t *testing.T) { stormTest(t, 1<<13) })
	t.Run("full", func(t *testing.T) {
		if testing.Short() || raceDetector {
			t.Skip("4M-flow storm against the real ceiling: seconds without -race, not with")
		}
		stormTest(t, flowtab.Ceiling)
	})
}

func stormTest(t *testing.T, ceiling int) {
	const established = 1024
	mon := newMonitor(ceiling)
	nat, _ := NewNAT()
	fp := newFlowPacket()

	// natPort[i] is established flow i's external port, fixed by its
	// first packet.
	var natPort [established]uint16
	sent := uint64(0)
	sendEstablished := func() {
		for i := 0; i < established; i++ {
			p := fp.flow(0, i)
			mon.Process(p) // reads only: the NAT gets the same packet
			if v := nat.Process(p); v != Pass {
				t.Fatalf("established flow %d: NAT verdict %v", i, v)
			}
			if sent == 0 {
				natPort[i] = p.SrcPort()
			} else if p.SrcPort() != natPort[i] {
				t.Fatalf("established flow %d: external port %d, was %d", i, p.SrcPort(), natPort[i])
			}
		}
		sent++
	}
	sendEstablished()

	heapInUse := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	var heapHalf uint64
	storm := 4 * ceiling
	for i := 0; i < storm; i++ {
		p := fp.flow(1, i)
		mon.Process(p)
		nat.Process(p)
		// Established flows send once per quarter-ceiling of new flows:
		// well inside one lap of the monitor's CLOCK hand.
		if i%(ceiling/4) == 0 {
			sendEstablished()
			if n := mon.FlowCount(); n > ceiling {
				t.Fatalf("monitor holds %d flows, over its ceiling of %d", n, ceiling)
			}
			if n := nat.Bindings(); n > natPorts {
				t.Fatalf("NAT holds %d bindings for %d ports", n, natPorts)
			}
		}
		if i == storm/2 {
			heapHalf = heapInUse()
		}
	}
	heapEnd := heapInUse()

	for i := 0; i < established; i++ {
		k, _ := flow.FromPacket(fp.flow(0, i))
		st, ok := mon.Flow(k)
		if !ok || st.Packets != sent {
			t.Fatalf("established flow %d: counters %+v (held %v), want %d packets", i, st, ok, sent)
		}
		in := tcpPacket("198.51.100.7", "203.0.113.1", 80, natPort[i], nil)
		if v := nat.Process(in); v != Pass || in.DstIP() != k.SrcIP || in.DstPort() != k.SrcPort {
			t.Fatalf("established flow %d: reply to port %d -> %v %v:%d", i, natPort[i], v, in.DstIP(), in.DstPort())
		}
	}
	ms, ns := mon.StateStats(), nat.StateStats()
	if ms.Entries != uint64(ceiling) || ms.Evictions != uint64(established+storm-ceiling) || ms.Refusals != 0 {
		t.Errorf("monitor stats %+v after %d flows through a ceiling of %d", ms, established+storm, ceiling)
	}
	// The NAT runs out of ports (45 536) before table slots when the
	// ceiling is the real one, and the other way round when scaled down.
	held := min(natPorts, established+storm)
	if ns.Entries != uint64(held) || ns.Refusals != uint64(established+storm-held) || ns.Evictions != 0 {
		t.Errorf("NAT stats %+v after %d flows, want %d held", ns, established+storm, held)
	}
	// Flat: what the second half of the storm added is noise next to the
	// tables themselves.
	if grown := int64(heapEnd) - int64(heapHalf); grown > int64(heapHalf)/20+(1<<20) {
		t.Errorf("heap in use grew %d KB over the second half of the storm (%d KB at half-way)", grown>>10, heapHalf>>10)
	}
}

// TestNATUnsolicitedByProtocol: a port bound by a TCP flow does not
// admit UDP from outside, nor the other way round; each protocol's own
// replies still translate.
func TestNATUnsolicitedByProtocol(t *testing.T) {
	build := map[uint8]func(src, dst string, sp, dp uint16, payload []byte) *packet.Packet{
		packet.ProtoTCP: tcpPacket, packet.ProtoUDP: udpPacket,
	}
	for bound, other := range map[uint8]uint8{packet.ProtoTCP: packet.ProtoUDP, packet.ProtoUDP: packet.ProtoTCP} {
		n, _ := NewNAT()
		out := build[bound]("192.168.1.10", "8.8.8.8", 5353, 53, []byte("q"))
		if v := n.Process(out); v != Pass || !out.VerifyL4Checksum() {
			t.Fatalf("proto %d outbound: verdict %v, checksum ok %v", bound, v, out.VerifyL4Checksum())
		}
		ext := out.SrcPort()
		if v := n.Process(build[other]("8.8.8.8", "203.0.113.1", 53, ext, []byte("x"))); v != Drop {
			t.Errorf("port %d bound by proto %d: inbound proto %d was %v, want drop", ext, bound, other, v)
		}
		in := build[bound]("8.8.8.8", "203.0.113.1", 53, ext, []byte("a"))
		if v := n.Process(in); v != Pass || in.DstIP() != netip.MustParseAddr("192.168.1.10") || in.DstPort() != 5353 {
			t.Errorf("proto %d reply: %v -> %v:%d", bound, v, in.DstIP(), in.DstPort())
		}
		if !in.VerifyL4Checksum() {
			t.Errorf("proto %d reply: checksum does not verify after translation", bound)
		}
		// Below the port range, and never bound: unsolicited.
		for _, port := range []uint16{0, 80, natPortBase - 1, 65535} {
			if v := n.Process(build[bound]("8.8.8.8", "203.0.113.1", 53, port, nil)); v != Drop {
				t.Errorf("proto %d to unbound port %d: %v, want drop", bound, port, v)
			}
		}
	}
}

// exhaustNAT binds every external port.
func exhaustNAT(tb testing.TB, n *NAT, fp *flowPacket) {
	for i := 0; i < natPorts; i++ {
		if v := n.Process(fp.flow(0, i)); v != Pass {
			tb.Fatalf("flow %d of %d refused", i, natPorts)
		}
	}
}

// TestNATPortExhaustion: with every port bound a new flow is refused and
// counted, bound flows keep translating, and a released binding's port
// goes to the next new flow.
func TestNATPortExhaustion(t *testing.T) {
	n, _ := NewNAT()
	fp := newFlowPacket()
	exhaustNAT(t, n, fp)
	seen := map[uint16]bool{}
	for i := 0; i < natPorts; i++ {
		p := fp.flow(0, i)
		n.Process(p)
		if p.SrcPort() < natPortBase || seen[p.SrcPort()] {
			t.Fatalf("flow %d: external port %d out of range or shared", i, p.SrcPort())
		}
		seen[p.SrcPort()] = true
	}
	for i := 0; i < 100; i++ {
		if v := n.Process(fp.flow(1, i)); v != Drop {
			t.Fatalf("new flow %d with no port free: %v", i, v)
		}
	}
	if st := n.StateStats(); st.Entries != natPorts || st.Refusals != 100 {
		t.Fatalf("stats %+v, want %d entries and 100 refusals", st, natPorts)
	}

	gone := fp.flow(0, 777)
	k, _ := flow.FromPacket(gone)
	n.Process(gone)
	port := gone.SrcPort()
	if !n.Release(k) || n.Release(k) {
		t.Fatal("Release: want true once, then false")
	}
	if v := n.Process(tcpPacket("198.51.100.7", "203.0.113.1", 80, port, nil)); v != Drop {
		t.Errorf("reply to released port %d: %v, want drop", port, v)
	}
	p := fp.flow(1, 5)
	if v := n.Process(p); v != Pass || p.SrcPort() != port {
		t.Errorf("after a release: verdict %v on port %d, want pass on %d", v, p.SrcPort(), port)
	}
	if n.Bindings() != natPorts {
		t.Errorf("bindings = %d, want %d", n.Bindings(), natPorts)
	}
}

// TestStateRoundTrip: export, import into a fresh instance, export
// again — the same bytes, for every table-backed NF, however the two
// tables happen to be laid out.
func TestStateRoundTrip(t *testing.T) {
	mon, gw := NewMonitor(), NewGateway()
	nat, _ := NewNAT()
	fp := newFlowPacket()
	for i := 0; i < 5000; i++ {
		for rep := 0; rep <= i%3; rep++ {
			mon.Process(fp.flow(0, i))
			gw.Process(fp.flow(0, i))
			nat.Process(fp.flow(0, i))
		}
	}
	mon2, gw2 := NewMonitor(), NewGateway()
	nat2, _ := NewNAT()
	for _, pair := range [][2]StatefulNF{{mon, mon2}, {gw, gw2}, {nat, nat2}} {
		first, err := pair[0].ExportState()
		if err != nil {
			t.Fatal(err)
		}
		if err := pair[1].ImportState(first); err != nil {
			t.Fatal(err)
		}
		second, err := pair[1].ExportState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("%s: re-exported state differs (%d vs %d bytes)", pair[0].Name(), len(first), len(second))
		}
		// Truncated, padded and mislabelled state is refused.
		for _, bad := range [][]byte{first[:len(first)-1], append(first[:len(first):len(first)], 0), first[:10], nil} {
			if err := pair[1].ImportState(bad); err == nil {
				t.Errorf("%s: accepted %d bytes of a %d-byte export", pair[0].Name(), len(bad), len(first))
			}
		}
	}
	if mon2.Total() != mon.Total() || mon2.FlowCount() != 5000 || gw2.Sessions() != gw.Sessions() || nat2.Bindings() != 5000 {
		t.Errorf("imported: monitor %+v/%d flows, gateway %d sessions, NAT %d bindings",
			mon2.Total(), mon2.FlowCount(), gw2.Sessions(), nat2.Bindings())
	}
	if err := mon2.ImportState(mustExport(t, nat)); err == nil {
		t.Error("monitor imported NAT state")
	}
}

func mustExport(t *testing.T, n StatefulNF) []byte {
	b, err := n.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCacheBoundedAndAllocFree: ten capacities' worth of distinct
// requests never hold more than one, evict oldest-first, and once the
// cache is full a miss replaces in place without allocating.
func TestCacheBoundedAndAllocFree(t *testing.T) {
	const capacity = 64
	c := NewCache(capacity)
	req := func(i int) *packet.Packet {
		return tcpPacket("10.0.0.1", "10.0.0.2", 1000, 80, []byte(fmt.Sprintf("GET /object/%d", i)))
	}
	for i := 0; i < 10*capacity; i++ {
		c.Process(req(i))
		if c.Len() > capacity {
			t.Fatalf("%d objects cached after %d requests, capacity %d", c.Len(), i+1, capacity)
		}
	}
	// FIFO: the newest `capacity` requests hit, the one before them missed.
	hits0, _ := c.Stats()
	for i := 9 * capacity; i < 10*capacity; i++ {
		c.Process(req(i))
	}
	if hits, _ := c.Stats(); hits-hits0 != capacity {
		t.Errorf("%d of the newest %d objects still cached", hits-hits0, capacity)
	}
	_, miss0 := c.Stats()
	c.Process(req(9*capacity - 1))
	if _, miss := c.Stats(); miss != miss0+1 {
		t.Error("an object older than the newest capacity's worth was still cached")
	}

	pkts := make([]*packet.Packet, 4*capacity)
	for i := range pkts {
		pkts[i] = req(100_000 + i)
	}
	next := 0
	if a := testing.AllocsPerRun(len(pkts)-1, func() { c.Process(pkts[next]); next++ }); a != 0 {
		t.Errorf("%v allocs per miss on a full cache, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { c.Process(pkts[len(pkts)-1]) }); a != 0 {
		t.Errorf("%v allocs per hit, want 0", a)
	}
}

// BenchmarkMonitorColdFlows is stateful_manyflow's monitor: 262 144
// flows visited uniformly, so every packet reads a counter entry the
// cache has long since dropped.
func BenchmarkMonitorColdFlows(b *testing.B) {
	const flows = 1 << 18
	m := NewMonitor()
	fp := newFlowPacket()
	pkts := make([]*packet.Packet, flows)
	for i := range pkts {
		pkts[i] = packet.New(append([]byte(nil), fp.flow(0, i*40503%flows).Bytes()...))
		if _, err := pkts[i].FlowKey(); err != nil {
			b.Fatal(err)
		}
	}
	verdicts := make([]Verdict, 32)
	m.ProcessBatch(pkts[:32], verdicts)
	burst := func(n int) { m.ProcessBatch(pkts[n&(flows-1):][:32], verdicts) }
	for n := 0; n < flows; n += 32 {
		burst(n)
	}
	if a := testing.AllocsPerRun(100, func() { burst(0) }); a != 0 {
		b.Fatalf("%v allocs per burst on established flows, want 0", a)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n += 32 {
		burst(n)
	}
}

// BenchmarkNATExhausted is a one-packet-per-flow flood against a NAT
// with no port left: each packet must cost a lookup and a refusal, not a
// walk of the port space.
func BenchmarkNATExhausted(b *testing.B) {
	n, _ := NewNAT()
	fp := newFlowPacket()
	exhaustNAT(b, n, fp)
	flood := make([]*packet.Packet, 4096)
	for i := range flood {
		flood[i] = packet.New(append([]byte(nil), fp.flow(1, i).Bytes()...))
	}
	op := func(i int) {
		if n.Process(flood[i&4095]) != Drop {
			b.Fatal("a flow got through an exhausted NAT")
		}
	}
	if a := testing.AllocsPerRun(100, func() { op(0) }); a != 0 {
		b.Fatalf("%v allocs per refused packet, want 0", a)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
}
