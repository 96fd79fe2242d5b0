package packet

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func testSpec() BuildSpec {
	return BuildSpec{
		SrcIP:   netip.MustParseAddr("10.0.0.1"),
		DstIP:   netip.MustParseAddr("192.168.1.2"),
		Proto:   ProtoTCP,
		SrcPort: 12345,
		DstPort: 80,
		Size:    128,
		TTL:     64,
	}
}

func TestMetaWordRoundTrip(t *testing.T) {
	cases := []Meta{
		{},
		{MID: 1, PID: 1, Version: 1},
		{MID: MaxMID, PID: MaxPID, Version: MaxVersion},
		{MID: 0x12345, PID: 0x1234567890, Version: 7},
	}
	for _, m := range cases {
		got := MetaFromWord(m.Word())
		if got != m {
			t.Errorf("round trip %+v -> %#x -> %+v", m, m.Word(), got)
		}
	}
}

func TestMetaWordRoundTripProperty(t *testing.T) {
	f := func(mid uint32, pid uint64, v uint8) bool {
		m := Meta{MID: mid & MaxMID, PID: pid & MaxPID, Version: v & MaxVersion}
		return MetaFromWord(m.Word()) == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMetaWordLayout(t *testing.T) {
	// Version occupies the low 4 bits, PID the next 40, MID the top 20.
	m := Meta{MID: 3, PID: 5, Version: 9}
	w := m.Word()
	if w&0xf != 9 {
		t.Errorf("version bits = %d, want 9", w&0xf)
	}
	if w>>4&MaxPID != 5 {
		t.Errorf("pid bits = %d, want 5", w>>4&MaxPID)
	}
	if w>>44 != 3 {
		t.Errorf("mid bits = %d, want 3", w>>44)
	}
}

func TestBuildAndParse(t *testing.T) {
	p := Build(testSpec())
	if err := p.Parse(); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := p.SrcIP(); got != netip.MustParseAddr("10.0.0.1") {
		t.Errorf("SrcIP = %v", got)
	}
	if got := p.DstIP(); got != netip.MustParseAddr("192.168.1.2") {
		t.Errorf("DstIP = %v", got)
	}
	if p.SrcPort() != 12345 || p.DstPort() != 80 {
		t.Errorf("ports = %d,%d", p.SrcPort(), p.DstPort())
	}
	if p.Protocol() != ProtoTCP {
		t.Errorf("proto = %d", p.Protocol())
	}
	if p.TTL() != 64 {
		t.Errorf("ttl = %d", p.TTL())
	}
	if p.Len() != 128 {
		t.Errorf("len = %d", p.Len())
	}
	wantPayload := 128 - EthHeaderLen - IPv4HeaderLen - TCPHeaderLen
	if len(p.Payload()) != wantPayload {
		t.Errorf("payload len = %d, want %d", len(p.Payload()), wantPayload)
	}
}

func TestBuildUDP(t *testing.T) {
	spec := testSpec()
	spec.Proto = ProtoUDP
	spec.Size = 90
	p := Build(spec)
	if p.Protocol() != ProtoUDP {
		t.Fatalf("proto = %d", p.Protocol())
	}
	if p.HeaderLen() != EthHeaderLen+IPv4HeaderLen+UDPHeaderLen {
		t.Errorf("header len = %d", p.HeaderLen())
	}
	// UDP length field covers UDP header + payload.
	l, _ := p.Layout()
	udpLen := binary.BigEndian.Uint16(p.Bytes()[l.L4Off+4 : l.L4Off+6])
	if int(udpLen) != 90-EthHeaderLen-IPv4HeaderLen {
		t.Errorf("udp length field = %d", udpLen)
	}
}

func TestParseErrors(t *testing.T) {
	if err := New(make([]byte, 10)).Parse(); err != ErrTruncated {
		t.Errorf("short packet: %v, want ErrTruncated", err)
	}
	b := make([]byte, 64)
	binary.BigEndian.PutUint16(b[12:14], 0x86dd) // IPv6 ethertype
	if err := New(b).Parse(); err != ErrNotIPv4 {
		t.Errorf("ipv6: %v, want ErrNotIPv4", err)
	}
	b2 := make([]byte, 64)
	binary.BigEndian.PutUint16(b2[12:14], EtherTypeIPv4)
	b2[EthHeaderLen] = 0x41 // IHL 1 word: invalid
	if err := New(b2).Parse(); err != ErrBadIPHeader {
		t.Errorf("bad ihl: %v, want ErrBadIPHeader", err)
	}
}

func TestSetFieldsFixChecksum(t *testing.T) {
	p := Build(testSpec())
	p.SetSrcIP(netip.MustParseAddr("1.2.3.4"))
	p.SetDstIP(netip.MustParseAddr("5.6.7.8"))
	p.SetTTL(10)
	l, _ := p.Layout()
	// Recompute the checksum independently: it must verify to zero sum.
	h := append([]byte(nil), p.Bytes()[l.L3Off:l.L3Off+IPv4HeaderLen]...)
	var sum uint32
	for i := 0; i < len(h); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(h[i : i+2]))
	}
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	if sum != 0xffff {
		t.Errorf("IP checksum does not verify: %#x", sum)
	}
	if p.SrcIP() != netip.MustParseAddr("1.2.3.4") || p.TTL() != 10 {
		t.Errorf("fields not applied")
	}
}

func TestSetPorts(t *testing.T) {
	p := Build(testSpec())
	p.SetSrcPort(1111)
	p.SetDstPort(2222)
	if p.SrcPort() != 1111 || p.DstPort() != 2222 {
		t.Errorf("ports = %d,%d", p.SrcPort(), p.DstPort())
	}
}

func TestFieldRanges(t *testing.T) {
	p := Build(testSpec())
	cases := []struct {
		f    Field
		off  int
		ln   int
		want bool
	}{
		{FieldSrcIP, EthHeaderLen + 12, 4, true},
		{FieldDstIP, EthHeaderLen + 16, 4, true},
		{FieldTTL, EthHeaderLen + 8, 1, true},
		{FieldIPHeader, EthHeaderLen, 20, true},
		{FieldSrcPort, EthHeaderLen + 20, 2, true},
		{FieldDstPort, EthHeaderLen + 22, 2, true},
		{FieldL4Header, EthHeaderLen + 20, 20, true},
		{FieldPayload, EthHeaderLen + 40, 128 - 54, true},
		{FieldAH, 0, 0, false}, // no AH header present
		{FieldNone, 0, 0, false},
	}
	for _, c := range cases {
		r, ok := p.FieldRange(c.f)
		if ok != c.want {
			t.Errorf("%v: ok=%v want %v", c.f, ok, c.want)
			continue
		}
		if ok && (r.Off != c.off || r.Len != c.ln) {
			t.Errorf("%v: range=%+v want {%d %d}", c.f, r, c.off, c.ln)
		}
	}
}

func TestFieldOverlaps(t *testing.T) {
	cases := []struct {
		a, b Field
		want bool
	}{
		{FieldSrcIP, FieldSrcIP, true},
		{FieldSrcIP, FieldDstIP, false},
		{FieldSrcIP, FieldIPHeader, true},
		{FieldIPHeader, FieldTTL, true},
		{FieldSrcPort, FieldL4Header, true},
		{FieldSrcPort, FieldIPHeader, false},
		{FieldPayload, FieldSrcIP, false},
		{FieldNone, FieldSrcIP, false},
		{FieldAH, FieldIPHeader, false},
	}
	for _, c := range cases {
		if got := c.a.Overlaps(c.b); got != c.want {
			t.Errorf("%v overlaps %v = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Overlaps(c.a); got != c.want {
			t.Errorf("overlap not symmetric for %v,%v", c.a, c.b)
		}
	}
}

func TestInsertRemoveAH(t *testing.T) {
	p := Build(testSpec())
	origLen := p.Len()
	origPayload := append([]byte(nil), p.Payload()...)

	// Insert an AH header after the IP header, as the VPN NF does.
	l, _ := p.Layout()
	ah := make([]byte, AHHeaderLen)
	ah[0] = ProtoTCP // next header
	ipEnd := l.L3Off + IPv4HeaderLen
	if err := p.InsertAt(ipEnd, ah); err != nil {
		t.Fatalf("InsertAt: %v", err)
	}
	// Flip IP protocol to AH and fix total length, like the VPN NF.
	p.Bytes()[l.L3Off+9] = ProtoAH
	p.Invalidate()
	p.SetTotalLen(uint16(p.Len() - EthHeaderLen))

	if !p.HasAH() {
		t.Fatal("AH not detected after insertion")
	}
	if p.Len() != origLen+AHHeaderLen {
		t.Errorf("len = %d, want %d", p.Len(), origLen+AHHeaderLen)
	}
	if p.Protocol() != ProtoTCP {
		t.Errorf("effective L4 proto = %d, want TCP", p.Protocol())
	}
	if !bytes.Equal(p.Payload(), origPayload) {
		t.Errorf("payload corrupted by AH insertion")
	}
	if p.SrcPort() != 12345 {
		t.Errorf("src port after AH = %d", p.SrcPort())
	}

	// Remove it again.
	r, ok := p.FieldRange(FieldAH)
	if !ok {
		t.Fatal("no AH range")
	}
	if err := p.RemoveAt(r.Off, r.Len); err != nil {
		t.Fatalf("RemoveAt: %v", err)
	}
	p.Bytes()[l.L3Off+9] = ProtoTCP
	p.Invalidate()
	p.SetTotalLen(uint16(p.Len() - EthHeaderLen))
	if p.HasAH() {
		t.Error("AH still detected after removal")
	}
	if p.Len() != origLen {
		t.Errorf("len = %d, want %d", p.Len(), origLen)
	}
	if !bytes.Equal(p.Payload(), origPayload) {
		t.Errorf("payload corrupted by AH removal")
	}
}

func TestInsertRemoveBounds(t *testing.T) {
	p := Build(testSpec())
	if err := p.InsertAt(-1, []byte{1}); err == nil {
		t.Error("negative insert offset accepted")
	}
	if err := p.InsertAt(p.Len()+1, []byte{1}); err == nil {
		t.Error("out-of-range insert offset accepted")
	}
	huge := make([]byte, len(p.Buffer()))
	if err := p.InsertAt(0, huge); err == nil {
		t.Error("overflowing insert accepted")
	}
	if err := p.RemoveAt(0, p.Len()+1); err == nil {
		t.Error("overlong remove accepted")
	}
	if err := p.RemoveAt(-1, 1); err == nil {
		t.Error("negative remove offset accepted")
	}
}

func TestHeaderOnlyCopy(t *testing.T) {
	src := Build(testSpec())
	src.Meta = Meta{MID: 7, PID: 42, Version: 1}
	src.Ingress = 999
	dst := New(make([]byte, 256))
	HeaderOnlyCopy(src, dst, 2)

	if dst.Len() != src.HeaderLen() {
		t.Errorf("copy len = %d, want %d", dst.Len(), src.HeaderLen())
	}
	if dst.Meta.Version != 2 || dst.Meta.MID != 7 || dst.Meta.PID != 42 {
		t.Errorf("meta = %+v", dst.Meta)
	}
	if dst.Ingress != 999 {
		t.Errorf("ingress not preserved")
	}
	// The packet length field must cover only the copied headers (§5.2).
	if int(dst.TotalLen()) != dst.Len()-EthHeaderLen {
		t.Errorf("total len = %d, want %d", dst.TotalLen(), dst.Len()-EthHeaderLen)
	}
	// Header fields must still be readable on the copy.
	if dst.SrcIP() != src.SrcIP() || dst.SrcPort() != src.SrcPort() {
		t.Errorf("header fields differ on copy")
	}
	if len(dst.Payload()) != 0 {
		t.Errorf("header-only copy has %d payload bytes", len(dst.Payload()))
	}
	// The incrementally updated IP checksum is the one a full re-sum
	// over the rewritten header gives.
	resummed := New(append([]byte(nil), dst.Bytes()...))
	resummed.SetTotalLen(dst.TotalLen())
	if !bytes.Equal(dst.Bytes(), resummed.Bytes()) {
		t.Errorf("IP checksum after the length rewrite:\n got %x\nwant %x", dst.Bytes(), resummed.Bytes())
	}
}

func TestFullCopy(t *testing.T) {
	src := Build(testSpec())
	src.Meta = Meta{MID: 1, PID: 2, Version: 1}
	dst := New(make([]byte, len(src.Buffer())))
	FullCopy(src, dst, 3)
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Error("full copy bytes differ")
	}
	if dst.Meta.Version != 3 || dst.Meta.PID != 2 {
		t.Errorf("meta = %+v", dst.Meta)
	}
	// Mutating the copy must not affect the original.
	dst.SetTTL(1)
	if src.TTL() == 1 {
		t.Error("copy aliases original")
	}
}

func TestNilPacket(t *testing.T) {
	n := NewNil(Meta{MID: 1, PID: 5, Version: 2})
	if !n.Nil {
		t.Fatal("not marked nil")
	}
	if n.Len() != 0 {
		t.Errorf("nil packet len = %d", n.Len())
	}
	if n.String() == "" {
		t.Error("empty String()")
	}
}

func TestSetLenPanics(t *testing.T) {
	p := Build(testSpec())
	defer func() {
		if recover() == nil {
			t.Error("SetLen beyond buffer did not panic")
		}
	}()
	p.SetLen(len(p.Buffer()) + 1)
}

func TestChecksumProperty(t *testing.T) {
	// For random header bytes, the checksum stored by fixIPChecksum must
	// make the full header sum to 0xffff (ones-complement verification).
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		p := Build(testSpec())
		l, _ := p.Layout()
		h := p.Bytes()[l.L3Off : l.L3Off+IPv4HeaderLen]
		for j := range h {
			if j == 0 || j == 10 || j == 11 {
				continue // keep IHL; checksum is recomputed
			}
			h[j] = byte(rng.Intn(256))
		}
		p.fixIPChecksum(l)
		var sum uint32
		for j := 0; j < len(h); j += 2 {
			sum += uint32(binary.BigEndian.Uint16(h[j : j+2]))
		}
		for sum > 0xffff {
			sum = sum&0xffff + sum>>16
		}
		if sum != 0xffff {
			t.Fatalf("iteration %d: checksum does not verify (%#x)", i, sum)
		}
	}
}

func TestFieldStrings(t *testing.T) {
	for f := FieldSrcIP; f < numFields; f++ {
		if f.String() == "" || f.String() == "none" {
			t.Errorf("field %d has bad name %q", f, f.String())
		}
	}
	if Field(200).String() != "field(200)" {
		t.Errorf("out-of-range field name = %q", Field(200).String())
	}
}

// TestOverwriteKeepsCachesAndChecksum: rewriting an address, the TTL or
// a port in place leaves the IP checksum a full re-sum would write, the
// flow key a fresh parse would read, and the layout untouched — at every
// alignment inside the IP header, with the bytes around the range intact.
func TestOverwriteKeepsCachesAndChecksum(t *testing.T) {
	for _, f := range []Field{FieldSrcIP, FieldDstIP, FieldTTL, FieldSrcPort, FieldDstPort} {
		for round := 0; round < 64; round++ {
			p := Build(BuildSpec{
				SrcIP: netip.AddrFrom4([4]byte{10, byte(round), 3, 4}), DstIP: netip.AddrFrom4([4]byte{172, 16, byte(round * 7), 9}),
				Proto: []uint8{ProtoTCP, ProtoUDP}[round%2], SrcPort: uint16(1000 + round), DstPort: 443,
				TTL: uint8(1 + round), Payload: []byte("overwrite"),
			})
			if _, err := p.FlowKey(); err != nil {
				t.Fatal(err)
			}
			lay, _ := p.Layout()
			r, _ := p.FieldRange(f)
			data := []byte{byte(round * 37), byte(round*11 + 1), 0xff, byte(round)}[:r.Len]

			want := New(append([]byte(nil), p.Bytes()...))
			copy(want.Buffer()[r.Off:], data)
			want.SetTotalLen(want.TotalLen()) // re-sums the whole header

			p.OverwriteField(f, data)
			if !bytes.Equal(p.Bytes(), want.Bytes()) {
				t.Fatalf("%v round %d: bytes\n got %x\nwant %x", f, round, p.Bytes(), want.Bytes())
			}
			gotKey, _ := p.FlowKey()
			wantKey, _ := want.FlowKey()
			if gotLay, _ := p.Layout(); gotKey != wantKey || gotLay != lay {
				t.Fatalf("%v round %d: key %v layout %+v, want %v %+v", f, round, gotKey, gotLay, wantKey, lay)
			}
		}
	}
	// Only those five: a range covering the checksum word, a field that
	// fixes an offset or a value of another length is refused outright.
	p := Build(BuildSpec{SrcIP: netip.AddrFrom4([4]byte{10, 0, 0, 1}), DstIP: netip.AddrFrom4([4]byte{10, 0, 0, 2}), Proto: ProtoUDP})
	for name, call := range map[string]func(){
		"whole IP header": func() { p.OverwriteField(FieldIPHeader, p.FieldBytes(FieldIPHeader)) },
		"payload":         func() { p.OverwriteField(FieldPayload, nil) },
		"short address":   func() { p.OverwriteField(FieldSrcIP, []byte{1, 2}) },
		"absent field":    func() { p.OverwriteField(FieldAH, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("OverwriteField of %s did not panic", name)
				}
			}()
			call()
		}()
	}
}
