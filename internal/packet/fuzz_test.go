package packet

import (
	"net/netip"
	"testing"
)

// FuzzParse feeds arbitrary bytes through the parser and every
// accessor that tolerates unparseable input. Nothing may panic, and a
// successful parse must yield internally consistent offsets.
func FuzzParse(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 14))
	f.Add(Build(BuildSpec{
		SrcIP: netip.MustParseAddr("10.0.0.1"), DstIP: netip.MustParseAddr("10.0.0.2"),
		SrcPort: 1, DstPort: 2, Size: 64,
	}).Bytes())
	udp := Build(BuildSpec{
		SrcIP: netip.MustParseAddr("10.0.0.1"), DstIP: netip.MustParseAddr("10.0.0.2"),
		Proto: ProtoUDP, SrcPort: 1, DstPort: 2, Size: 80,
	})
	f.Add(udp.Bytes())
	// An AH-bearing packet.
	ah := Build(BuildSpec{
		SrcIP: netip.MustParseAddr("10.0.0.1"), DstIP: netip.MustParseAddr("10.0.0.2"),
		SrcPort: 1, DstPort: 2, Size: 90,
	})
	hdr := make([]byte, AHHeaderLen)
	hdr[0] = ProtoTCP
	_ = ah.InsertAt(EthHeaderLen+IPv4HeaderLen, hdr)
	ah.Bytes()[EthHeaderLen+9] = ProtoAH
	ah.Invalidate()
	f.Add(append([]byte(nil), ah.Bytes()...))

	f.Fuzz(func(t *testing.T, data []byte) {
		p := New(append([]byte(nil), data...))
		err := p.Parse()
		if err != nil {
			// Unparseable packets still answer range queries safely.
			for _, fd := range Fields() {
				if _, ok := p.FieldRange(fd); ok {
					t.Fatalf("field %v resolvable on unparseable packet", fd)
				}
			}
			return
		}
		l, _ := p.Layout()
		if l.L3Off != EthHeaderLen {
			t.Fatalf("L3Off = %d", l.L3Off)
		}
		if l.AppOff >= 0 && l.AppOff > p.Len() {
			t.Fatalf("AppOff %d beyond len %d", l.AppOff, p.Len())
		}
		// Every resolvable field stays within the wire bytes.
		for _, fd := range Fields() {
			if r, ok := p.FieldRange(fd); ok {
				if r.Off < 0 || r.Len < 0 || r.Off+r.Len > p.Len() {
					t.Fatalf("field %v range %+v outside packet of %d", fd, r, p.Len())
				}
			}
		}
		// Accessors must not panic on a parsed packet.
		_ = p.SrcIP()
		_ = p.DstIP()
		_ = p.SrcPort()
		_ = p.DstPort()
		_ = p.TTL()
		_ = p.Payload()
		_ = p.HeaderLen()
		_ = p.HasAH()
	})
}

// FuzzHeaderOnlyCopy checks the copy invariants over arbitrary parsed
// inputs: the copy parses, covers exactly the header chain, and leaves
// the source untouched.
func FuzzHeaderOnlyCopy(f *testing.F) {
	f.Add(Build(BuildSpec{
		SrcIP: netip.MustParseAddr("10.0.0.1"), DstIP: netip.MustParseAddr("10.0.0.2"),
		SrcPort: 9, DstPort: 10, Size: 200,
	}).Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		src := New(append([]byte(nil), data...))
		if src.Parse() != nil {
			return
		}
		before := append([]byte(nil), src.Bytes()...)
		dst := New(make([]byte, len(data)+64))
		HeaderOnlyCopy(src, dst, 2)
		if string(src.Bytes()) != string(before) {
			t.Fatal("source mutated by header-only copy")
		}
		if dst.Len() != src.HeaderLen() {
			t.Fatalf("copy len %d != header len %d", dst.Len(), src.HeaderLen())
		}
		if dst.Meta.Version != 2 {
			t.Fatal("version not tagged")
		}
		if err := dst.Parse(); err != nil {
			t.Fatalf("header-only copy unparseable: %v", err)
		}
		// The layout and flow key the copy inherited are the ones its own
		// bytes parse to.
		fresh := New(append([]byte(nil), dst.Bytes()...))
		if err := fresh.Parse(); err != nil || fresh.layout != dst.layout || fresh.fkey != dst.fkey {
			t.Fatalf("inherited caches differ from a parse of the copy: %v\n got %+v %+v\nwant %+v %+v",
				err, dst.layout, dst.fkey, fresh.layout, fresh.fkey)
		}
	})
}
