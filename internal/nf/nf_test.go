package nf

import (
	"bytes"
	"fmt"
	"net/netip"
	"slices"
	"testing"

	"nfp/internal/nfa"
	"nfp/internal/packet"
)

func tcpPacket(src, dst string, sp, dp uint16, payload []byte) *packet.Packet {
	return packet.Build(packet.BuildSpec{
		SrcIP:   netip.MustParseAddr(src),
		DstIP:   netip.MustParseAddr(dst),
		Proto:   packet.ProtoTCP,
		SrcPort: sp, DstPort: dp,
		Payload: payload,
	})
}

// TestRegistryCoversEvaluationNFs ties the registry to the catalog: an
// NF instance carries no profile of its own, so every registered name
// must resolve to a catalog profile of that name, and every instance must
// answer to the name it was registered under.
func TestRegistryCoversEvaluationNFs(t *testing.T) {
	r := NewRegistry()
	names := r.Names()
	for _, name := range names {
		if prof, ok := nfa.LookupProfile(name); !ok || prof.Name != name {
			t.Errorf("LookupProfile(%q) = %q, %v", name, prof.Name, ok)
		}
		inst, err := r.New(name)
		if err != nil {
			t.Errorf("New(%q): %v", name, err)
			continue
		}
		if inst.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, inst.Name())
		}
	}
	want := []string{
		nfa.NFL3Fwd, nfa.NFLB, nfa.NFFirewall, nfa.NFIDS, nfa.NFNIDS,
		nfa.NFVPN, nfa.NFMonitor, nfa.NFNAT, nfa.NFSynthetic,
		nfa.NFGateway, nfa.NFCaching, nfa.NFProxy, nfa.NFCompress, nfa.NFShaper,
	}
	slices.Sort(want)
	if !slices.Equal(names, want) {
		t.Errorf("Names() = %v, want %v", names, want)
	}
	if _, err := r.New("bogus"); err == nil {
		t.Error("unknown NF instantiated")
	}
}

func TestNewNFsRegistered(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{nfa.NFGateway, nfa.NFCaching, nfa.NFProxy, nfa.NFCompress, nfa.NFShaper} {
		inst, err := r.New(name)
		if err != nil {
			t.Errorf("New(%q): %v", name, err)
			continue
		}
		if prof, ok := nfa.LookupProfile(name); inst.Name() != name || !ok || prof.Name != name {
			t.Errorf("%q identity mismatch", name)
		}
	}
}

func TestRegistryInstancesIndependent(t *testing.T) {
	r := NewRegistry()
	a, _ := r.New(nfa.NFMonitor)
	b, _ := r.New(nfa.NFMonitor)
	p := tcpPacket("10.0.0.1", "10.0.0.2", 1, 2, nil)
	a.Process(p)
	if b.(*Monitor).Total().Packets != 0 {
		t.Error("monitor instances share state")
	}
}

func TestL3ForwarderLooksUp(t *testing.T) {
	f, err := NewL3Forwarder(DefaultRouteCount)
	if err != nil {
		t.Fatal(err)
	}
	p := tcpPacket("10.0.0.1", "10.9.9.9", 1234, 80, nil)
	before := append([]byte(nil), p.Bytes()...)
	if v := f.Process(p); v != Pass {
		t.Errorf("verdict = %v", v)
	}
	if !bytes.Equal(before, p.Bytes()) {
		t.Error("forwarder modified the packet (profile says read-only)")
	}
	if f.Lookups() != 1 {
		t.Errorf("lookups = %d", f.Lookups())
	}
}

func TestLoadBalancerRewritesAndIsStable(t *testing.T) {
	lb, err := NewLoadBalancer(8)
	if err != nil {
		t.Fatal(err)
	}
	p := tcpPacket("10.0.0.1", "10.100.0.1", 1234, 80, nil)
	k, _ := p.FlowKey()
	want := lb.Backend(k)
	lb.Process(p)
	if p.DstIP() != want {
		t.Errorf("dst = %v, want %v", p.DstIP(), want)
	}
	if p.SrcIP() != netip.MustParseAddr("10.100.0.1") {
		t.Errorf("src = %v, want VIP", p.SrcIP())
	}
	// Same flow always maps to the same backend (ECMP stability).
	p2 := tcpPacket("10.0.0.1", "10.100.0.1", 1234, 80, nil)
	lb.Process(p2)
	if p2.DstIP() != want {
		t.Error("ECMP not stable for a flow")
	}
	// Different flows spread across backends.
	seen := map[netip.Addr]bool{}
	for i := 0; i < 200; i++ {
		q := tcpPacket("10.0.0.1", "10.100.0.1", uint16(1000+i), 80, nil)
		lb.Process(q)
		seen[q.DstIP()] = true
	}
	if len(seen) < 4 {
		t.Errorf("only %d backends used by 200 flows", len(seen))
	}
	var total uint64
	for _, c := range lb.Counts() {
		total += c
	}
	if total != 202 {
		t.Errorf("backend counts sum = %d", total)
	}
}

func TestLoadBalancerValidation(t *testing.T) {
	if _, err := NewLoadBalancer(0); err == nil {
		t.Error("zero backends accepted")
	}
}

func TestFirewallDefaultAllowAndDenyRules(t *testing.T) {
	fw, err := NewFirewall(DefaultACLSize)
	if err != nil {
		t.Fatal(err)
	}
	// Generator-style traffic in 10/8 passes.
	p := tcpPacket("10.1.2.3", "10.4.5.6", 1000, 80, nil)
	if v := fw.Process(p); v != Pass {
		t.Errorf("10/8 traffic verdict = %v", v)
	}
	passed, dropped := fw.Stats()
	if passed != 1 || dropped != 0 {
		t.Errorf("stats = %d/%d", passed, dropped)
	}
}

func TestFirewallExplicitRules(t *testing.T) {
	fw := NewFirewallFromRules([]ACLRule{
		{
			Src:       netip.MustParsePrefix("192.168.0.0/16"),
			Dst:       netip.MustParsePrefix("0.0.0.0/0"),
			SrcPortLo: 0, SrcPortHi: 0xffff,
			DstPortLo: 22, DstPortHi: 22,
			Proto:  packet.ProtoTCP,
			Action: Deny,
		},
		{
			Src:       netip.MustParsePrefix("0.0.0.0/0"),
			Dst:       netip.MustParsePrefix("0.0.0.0/0"),
			SrcPortLo: 0, SrcPortHi: 0xffff,
			DstPortLo: 0, DstPortHi: 0xffff,
			Action: Allow,
		},
	}, Deny)

	ssh := tcpPacket("192.168.1.5", "10.0.0.1", 40000, 22, nil)
	if v := fw.Process(ssh); v != Drop {
		t.Errorf("ssh from 192.168/16 verdict = %v, want drop", v)
	}
	web := tcpPacket("192.168.1.5", "10.0.0.1", 40000, 80, nil)
	if v := fw.Process(web); v != Pass {
		t.Errorf("web verdict = %v, want pass", v)
	}
	// Unparseable packets are dropped.
	if v := fw.Process(packet.New(make([]byte, 8))); v != Drop {
		t.Errorf("garbage verdict = %v, want drop", v)
	}
}

func TestIDSDetectsAndDropsInline(t *testing.T) {
	ids, err := NewIDS(DefaultSignatureCount, true)
	if err != nil {
		t.Fatal(err)
	}
	clean := tcpPacket("10.0.0.1", "10.0.0.2", 1, 2, []byte("hello normal traffic"))
	if v := ids.Process(clean); v != Pass {
		t.Errorf("clean verdict = %v", v)
	}
	evil := tcpPacket("10.0.0.1", "10.0.0.2", 1, 2, []byte("xx SIG-0042-ATTACK xx"))
	evil.Meta.PID = 77
	if v := ids.Process(evil); v != Drop {
		t.Errorf("attack verdict = %v, want drop", v)
	}
	alerts := ids.Alerts()
	if len(alerts) != 1 || alerts[0].Signature != 42 || alerts[0].PID != 77 {
		t.Errorf("alerts = %+v", alerts)
	}
	if ids.Scanned() != 2 {
		t.Errorf("scanned = %d", ids.Scanned())
	}
}

func TestNIDSPassiveOnlyAlerts(t *testing.T) {
	nids, err := NewIDS(10, false)
	if err != nil {
		t.Fatal(err)
	}
	if nids.Name() != nfa.NFNIDS {
		t.Errorf("name = %q", nids.Name())
	}
	evil := tcpPacket("10.0.0.1", "10.0.0.2", 1, 2, []byte("SIG-0003-ATTACK"))
	if v := nids.Process(evil); v != Pass {
		t.Errorf("passive NIDS verdict = %v, want pass", v)
	}
	if len(nids.Alerts()) != 1 {
		t.Errorf("alerts = %v", nids.Alerts())
	}
}

func TestVPNEncapDecapRoundTrip(t *testing.T) {
	v, err := NewVPN(nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("confidential payload bytes")
	p := tcpPacket("10.0.0.1", "10.0.0.2", 5555, 443, payload)
	origLen := p.Len()

	if verdict := v.Process(p); verdict != Pass {
		t.Fatalf("verdict = %v", verdict)
	}
	if !p.HasAH() {
		t.Fatal("no AH header after encapsulation")
	}
	if p.Len() != origLen+packet.AHHeaderLen {
		t.Errorf("len = %d, want %d", p.Len(), origLen+packet.AHHeaderLen)
	}
	if bytes.Equal(p.Payload(), payload) {
		t.Error("payload not encrypted")
	}
	if int(p.TotalLen()) != p.Len()-packet.EthHeaderLen {
		t.Errorf("IP total length not fixed: %d", p.TotalLen())
	}
	if v.Encapsulated() != 1 {
		t.Errorf("encapsulated = %d", v.Encapsulated())
	}

	if err := v.Decap(p); err != nil {
		t.Fatalf("Decap: %v", err)
	}
	if p.HasAH() {
		t.Error("AH still present")
	}
	if !bytes.Equal(p.Payload(), payload) {
		t.Errorf("payload = %q, want %q", p.Payload(), payload)
	}
	if p.Len() != origLen {
		t.Errorf("len = %d, want %d", p.Len(), origLen)
	}
}

func TestVPNDetectsTampering(t *testing.T) {
	v, _ := NewVPN(nil)
	for _, c := range []struct {
		name  string
		field packet.Field
		at    int // byte offset within the field
	}{
		{"payload", packet.FieldPayload, 0},
		{"AH SPI", packet.FieldAH, 4},
		{"AH sequence number", packet.FieldAH, 8},
		{"ICV", packet.FieldAH, 12},
		{"source address", packet.FieldSrcIP, 0},
		{"destination address", packet.FieldDstIP, 3},
	} {
		p := vpnFrame([]byte("data-to-protect!"))
		v.Process(p)
		r, _ := p.FieldRange(c.field)
		p.Buffer()[r.Off+c.at] ^= 0x10
		if err := v.Decap(p); err == nil {
			t.Errorf("%s bit flipped: tampered packet passed integrity check", c.name)
		}
	}
}

func TestVPNSkipsEncapsulated(t *testing.T) {
	v, _ := NewVPN(nil)
	p := tcpPacket("10.0.0.1", "10.0.0.2", 1, 2, []byte("abc"))
	v.Process(p)
	n := v.Encapsulated()
	v.Process(p) // second pass must not double-wrap
	if v.Encapsulated() != n {
		t.Error("double encapsulation")
	}
	if err := v.Decap(tcpPacket("1.1.1.1", "2.2.2.2", 1, 2, nil)); err == nil {
		t.Error("Decap of plain packet succeeded")
	}
}

func TestVPNBadKey(t *testing.T) {
	if _, err := NewVPN([]byte("short")); err == nil {
		t.Error("bad AES key accepted")
	}
}

func TestMonitorCountsPerFlow(t *testing.T) {
	m := NewMonitor()
	for i := 0; i < 3; i++ {
		m.Process(tcpPacket("10.0.0.1", "10.0.0.2", 1000, 80, nil))
	}
	m.Process(tcpPacket("10.0.0.9", "10.0.0.2", 1000, 80, nil))

	k, _ := tcpPacket("10.0.0.1", "10.0.0.2", 1000, 80, nil).FlowKey()
	st, ok := m.Flow(k)
	if !ok || st.Packets != 3 {
		t.Errorf("flow stats = %+v, %v", st, ok)
	}
	if m.FlowCount() != 2 {
		t.Errorf("flows = %d", m.FlowCount())
	}
	if m.Total().Packets != 4 {
		t.Errorf("total = %+v", m.Total())
	}
	if _, ok := m.Flow(k.Reverse()); ok {
		t.Error("reverse flow tracked without traffic")
	}
}

func TestNATTranslatesAndReverses(t *testing.T) {
	n, err := NewNAT()
	if err != nil {
		t.Fatal(err)
	}
	out := tcpPacket("192.168.1.10", "8.8.8.8", 44444, 53, nil)
	if v := n.Process(out); v != Pass {
		t.Fatalf("outbound verdict = %v", v)
	}
	if out.SrcIP() != n.External() {
		t.Errorf("src = %v, want %v", out.SrcIP(), n.External())
	}
	extPort := out.SrcPort()
	if extPort < 20000 {
		t.Errorf("external port = %d", extPort)
	}
	if n.Bindings() != 1 {
		t.Errorf("bindings = %d", n.Bindings())
	}

	// Same flow reuses the binding.
	out2 := tcpPacket("192.168.1.10", "8.8.8.8", 44444, 53, nil)
	n.Process(out2)
	if out2.SrcPort() != extPort || n.Bindings() != 1 {
		t.Error("binding not reused")
	}

	// Reply comes back to the external address and is restored.
	in := tcpPacket("8.8.8.8", "203.0.113.1", 53, extPort, nil)
	if v := n.Process(in); v != Pass {
		t.Fatalf("inbound verdict = %v", v)
	}
	if in.DstIP() != netip.MustParseAddr("192.168.1.10") || in.DstPort() != 44444 {
		t.Errorf("restored dst = %v:%d", in.DstIP(), in.DstPort())
	}

	// Unsolicited inbound is dropped.
	bad := tcpPacket("8.8.8.8", "203.0.113.1", 53, 1, nil)
	if v := n.Process(bad); v != Drop {
		t.Errorf("unsolicited verdict = %v", v)
	}
}

func TestSyntheticWritesTTLAndSpins(t *testing.T) {
	s := NewSynthetic(1000)
	p := tcpPacket("10.0.0.1", "10.0.0.2", 1, 2, nil)
	if v := s.Process(p); v != Pass {
		t.Errorf("verdict = %v", v)
	}
	if p.TTL() != 63 {
		t.Errorf("ttl = %d, want 63", p.TTL())
	}
	if s.Seen() != 1 || s.Cycles() != 1000 {
		t.Errorf("seen=%d cycles=%d", s.Seen(), s.Cycles())
	}
	if NewSynthetic(-5).Cycles() != 0 {
		t.Error("negative cycles not clamped")
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewL3Forwarder(-1); err == nil {
		t.Error("negative routes accepted")
	}
	if _, err := NewFirewall(-1); err == nil {
		t.Error("negative rules accepted")
	}
	if _, err := NewIDS(-1, true); err == nil {
		t.Error("negative signatures accepted")
	}
	r := NewRegistry()
	if err := r.Register("", nil); err == nil {
		t.Error("empty registration accepted")
	}
}

// TestProcessIsOnePacketBatch holds the three NFs whose Process is a
// one-packet ProcessBatch to it: driven packet by packet, an instance
// returns the verdicts, leaves the bytes and ends in the state of a twin
// driven in bursts of 8 over the same traffic (runs of same-flow packets
// included, which is what the batch path memoises) — and the one-packet
// call does not allocate.
func TestProcessIsOnePacketBatch(t *testing.T) {
	traffic := func() []*packet.Packet {
		var pkts []*packet.Packet
		for i := 0; i < 64; i++ {
			run := i / 3 // three packets per flow, back to back
			pkts = append(pkts, tcpPacket("10.0.0.1", "10.9.0.2", uint16(1000+run%5), 80, []byte{byte(i)}))
		}
		pkts[17].Invalidate()
		pkts[17].SetLen(6) // unparseable: both paths must pass it untouched
		return pkts
	}
	mustFwd := func() *L3Forwarder {
		f, err := NewL3Forwarder(DefaultRouteCount)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	mustLB := func() *LoadBalancer {
		lb, err := NewLoadBalancer(DefaultBackendCount)
		if err != nil {
			t.Fatal(err)
		}
		return lb
	}
	cases := []struct {
		name  string
		mk    func() NF
		state func(NF) any
	}{
		{"l3fwd", func() NF { return mustFwd() }, func(n NF) any {
			f := n.(*L3Forwarder)
			return [2]uint64{f.lookups, f.misses}
		}},
		{"lb", func() NF { return mustLB() }, func(n NF) any { return fmt.Sprint(n.(*LoadBalancer).Counts()) }},
		{"monitor", func() NF { return NewMonitor() }, func(n NF) any {
			m := n.(*Monitor)
			return fmt.Sprint(m.Total(), m.Snapshot())
		}},
	}
	for _, tc := range cases {
		scalar, batch := tc.mk(), tc.mk()
		sp, bp := traffic(), traffic()
		var sv, bv []Verdict
		for _, p := range sp {
			sv = append(sv, scalar.Process(p))
		}
		for i := 0; i < len(bp); i += 8 {
			v := make([]Verdict, 8)
			batch.(BatchProcessor).ProcessBatch(bp[i:i+8], v)
			bv = append(bv, v...)
		}
		for i := range sp {
			if sv[i] != bv[i] {
				t.Errorf("%s: packet %d verdict %v scalar, %v batched", tc.name, i, sv[i], bv[i])
			}
			if !bytes.Equal(sp[i].Bytes(), bp[i].Bytes()) {
				t.Errorf("%s: packet %d bytes differ between the scalar and batched runs", tc.name, i)
			}
		}
		if s, b := tc.state(scalar), tc.state(batch); s != b {
			t.Errorf("%s: state after the scalar run %v, after the batched run %v", tc.name, s, b)
		}
		p := tcpPacket("10.0.0.1", "10.9.0.2", 1000, 80, nil) // a flow the NF has seen
		if allocs := testing.AllocsPerRun(100, func() { scalar.Process(p) }); allocs != 0 {
			t.Errorf("%s: one-packet Process allocates %.1f times per call", tc.name, allocs)
		}
	}
}
