package nf

import (
	"net/netip"
	"testing"
)

func TestMonitorStateMigration(t *testing.T) {
	src := NewMonitor()
	for i := 0; i < 3; i++ {
		src.Process(tcpPacket("10.0.0.1", "10.0.0.2", 1000, 80, []byte("x")))
	}
	src.Process(tcpPacket("10.0.0.3", "10.0.0.4", 2000, 443, nil))

	dst := NewMonitor()
	// The destination already has some of its own traffic.
	dst.Process(tcpPacket("10.0.0.1", "10.0.0.2", 1000, 80, []byte("x")))

	if err := Migrate(src, dst); err != nil {
		t.Fatal(err)
	}
	k, _ := tcpPacket("10.0.0.1", "10.0.0.2", 1000, 80, nil).FlowKey()
	st, ok := dst.Flow(k)
	if !ok || st.Packets != 4 { // 3 migrated + 1 local
		t.Errorf("merged counters = %+v, %v", st, ok)
	}
	if dst.FlowCount() != 2 {
		t.Errorf("flows = %d", dst.FlowCount())
	}
	if dst.Total().Packets != 5 {
		t.Errorf("total = %+v", dst.Total())
	}
	// Bytes migrated too.
	if st.Bytes == 0 {
		t.Error("bytes not migrated")
	}
}

func TestNATStateMigration(t *testing.T) {
	src, _ := NewNAT()
	out := tcpPacket("192.168.1.10", "8.8.8.8", 44444, 53, nil)
	src.Process(out)
	extPort := out.SrcPort()

	dst, _ := NewNAT()
	if err := Migrate(src, dst); err != nil {
		t.Fatal(err)
	}
	if dst.Bindings() != 1 {
		t.Fatalf("bindings = %d", dst.Bindings())
	}
	// The migrated binding keeps its external port: replies arriving at
	// the NEW instance still translate back.
	in := tcpPacket("8.8.8.8", "203.0.113.1", 53, extPort, nil)
	if v := dst.Process(in); v != Pass {
		t.Fatalf("inbound verdict = %v", v)
	}
	if in.DstIP() != netip.MustParseAddr("192.168.1.10") || in.DstPort() != 44444 {
		t.Errorf("restored = %v:%d", in.DstIP(), in.DstPort())
	}
	// Outbound on the migrated flow reuses the same binding.
	out2 := tcpPacket("192.168.1.10", "8.8.8.8", 44444, 53, nil)
	dst.Process(out2)
	if out2.SrcPort() != extPort {
		t.Errorf("binding not preserved: %d vs %d", out2.SrcPort(), extPort)
	}
}

func TestNATMigrationPortCollision(t *testing.T) {
	// Both instances allocated the same external port independently;
	// the import must reallocate rather than corrupt the table.
	src, _ := NewNAT()
	src.Process(tcpPacket("192.168.1.10", "8.8.8.8", 1111, 53, nil))

	dst, _ := NewNAT()
	dst.Process(tcpPacket("192.168.2.20", "8.8.4.4", 2222, 53, nil))

	if err := Migrate(src, dst); err != nil {
		t.Fatal(err)
	}
	if dst.Bindings() != 2 {
		t.Fatalf("bindings = %d", dst.Bindings())
	}
	// Both flows translate to DISTINCT external ports.
	a := tcpPacket("192.168.1.10", "8.8.8.8", 1111, 53, nil)
	b := tcpPacket("192.168.2.20", "8.8.4.4", 2222, 53, nil)
	dst.Process(a)
	dst.Process(b)
	if a.SrcPort() == b.SrcPort() {
		t.Errorf("port collision after migration: both %d", a.SrcPort())
	}
}

func TestMigrateTypeSafety(t *testing.T) {
	mon := NewMonitor()
	nat, _ := NewNAT()
	if err := Migrate(mon, nat); err == nil {
		t.Error("cross-type migration accepted")
	}
	fwd, _ := NewL3Forwarder(10)
	if err := Migrate(fwd, fwd); err == nil {
		t.Error("stateless NF migration accepted")
	}
	// Corrupt state rejected.
	if err := NewMonitor().ImportState([]byte("garbage")); err == nil {
		t.Error("garbage state accepted")
	}
	n, _ := NewNAT()
	if err := n.ImportState([]byte("garbage")); err == nil {
		t.Error("garbage NAT state accepted")
	}
}
