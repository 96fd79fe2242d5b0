package packet_test

import (
	"net/netip"
	"testing"
	"unsafe"

	"nfp/internal/flowtab"
	"nfp/internal/nf"
	"nfp/internal/packet"
)

// TestFlowKeyLayout pins the key's 16-byte layout: a 14-byte key is
// copied as two overlapping stores, and reading Dst after such a copy
// stalls on the store buffer (see the FlowKey comment). It also holds
// every way the program makes a key — Parse, a composite literal,
// flowtab.Range and the NF state codec's import — to one key: equal
// under == and under Hash, whatever the pad bytes hold.
func TestFlowKeyLayout(t *testing.T) {
	var k packet.FlowKey
	if got := unsafe.Sizeof(k); got != 16 {
		t.Fatalf("unsafe.Sizeof(FlowKey{}) = %d, want 16", got)
	}
	for _, f := range []struct {
		name      string
		got, want uintptr
	}{
		{"Src", unsafe.Offsetof(k.Src), 0},
		{"Dst", unsafe.Offsetof(k.Dst), 4},
		{"SrcPort", unsafe.Offsetof(k.SrcPort), 8},
		{"DstPort", unsafe.Offsetof(k.DstPort), 10},
		{"Proto", unsafe.Offsetof(k.Proto), 12},
	} {
		if f.got != f.want {
			t.Errorf("offset of %s = %d, want %d", f.name, f.got, f.want)
		}
	}

	lit := packet.FlowKey{
		Src: [4]byte{10, 1, 2, 3}, Dst: [4]byte{10, 4, 5, 6},
		SrcPort: 1033, DstPort: 80, Proto: packet.ProtoTCP,
	}
	p := packet.Build(packet.BuildSpec{
		SrcIP: netip.AddrFrom4(lit.Src), DstIP: netip.AddrFrom4(lit.Dst),
		Proto: packet.ProtoTCP, SrcPort: lit.SrcPort, DstPort: lit.DstPort,
		TTL: 64, Size: 96,
	})
	parsed, err := p.FlowKey()
	if err != nil {
		t.Fatal(err)
	}

	tab := flowtab.New[int](16, flowtab.Evict)
	tab.Insert(lit)
	var ranged packet.FlowKey
	tab.Range(func(k packet.FlowKey, _ *int) bool { ranged = k; return false })

	src := nf.NewMonitor()
	src.Process(p)
	state, err := src.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	dst := nf.NewMonitor()
	if err := dst.ImportState(state); err != nil {
		t.Fatal(err)
	}
	snap := dst.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("imported %d flows, want 1", len(snap))
	}

	// == compares only the named fields: garbage in the pad is invisible.
	dirty := lit
	raw := (*[16]byte)(unsafe.Pointer(&dirty))
	raw[13], raw[14], raw[15] = 0xde, 0xad, 0xff

	for _, c := range []struct {
		how string
		k   packet.FlowKey
	}{
		{"Parse", parsed},
		{"flowtab.Range", ranged},
		{"Monitor.ImportState", snap[0].Key},
		{"pad bytes set", dirty},
	} {
		if c.k != lit {
			t.Errorf("%s: key %v != literal %v", c.how, c.k, lit)
		}
		if c.k.Hash() != lit.Hash() {
			t.Errorf("%s: Hash %#x, literal's %#x", c.how, c.k.Hash(), lit.Hash())
		}
	}
}
