package packet_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"net/netip"
	"testing"

	"nfp/internal/nf"
	"nfp/internal/packet"
)

// How a tupleCase's frame is prepared before the rewrite under test.
const (
	prepPlain       = iota
	prepAH          // encapsulated by the VPN NF: the L4 header sits behind AH
	prepHeaderOnly  // a header-only copy, its L4 checksum over the shortened segment
	prepUDPZero     // the UDP checksum set to 0, "none"
	prepSetSrcIP    // the key patched earlier by SetSrcIP
	prepSetDstPort  // ... by SetDstPort
	prepOverwriteIP // ... by OverwriteField on the destination address
	numPreps
)

// tupleCase is one input to the setter property: a frame built from
// the from tuple, prepared by prep (patch supplies the earlier setter's
// value), then rewritten to the to tuple's fields chosen by mask (bits
// 0–3: source, destination, source port, destination port) — through
// SetTuple, or with mask bit 4 through SetSrcIP and SetDstIP.
type tupleCase struct {
	udp             bool
	payload         []byte
	prep            uint8
	from, to, patch packet.FlowKey
	mask            uint8
}

// checkTupleRewrite holds the incremental setters, whose old words come
// from the packet's cached key, to a copy rewritten byte by byte and
// re-summed (FixIPChecksum, UpdateL4Checksum; a disabled UDP checksum
// stays 0, and SetSrcIP/SetDstIP leave the L4 checksum alone), and the
// cached key to a fresh parse of the result.
func checkTupleRewrite(t *testing.T, vpn *nf.VPN, c tupleCase) {
	t.Helper()
	proto := uint8(packet.ProtoTCP)
	if c.udp {
		proto = packet.ProtoUDP
	}
	p := packet.New(make([]byte, 2048))
	packet.BuildInto(p, packet.BuildSpec{
		SrcIP: netip.AddrFrom4(c.from.Src), DstIP: netip.AddrFrom4(c.from.Dst),
		Proto: proto, SrcPort: c.from.SrcPort, DstPort: c.from.DstPort,
		Payload: append([]byte{}, c.payload...),
	})
	switch c.prep % numPreps {
	case prepAH:
		vpn.Process(p)
		if !p.HasAH() {
			t.Fatal("the VPN left the frame unencapsulated")
		}
	case prepHeaderOnly:
		q := packet.New(make([]byte, 2048))
		packet.HeaderOnlyCopy(p, q, 2)
		q.UpdateL4Checksum()
		p = q
	case prepUDPZero:
		if r, ok := p.FieldRange(packet.FieldL4Header); ok && c.udp {
			binary.BigEndian.PutUint16(p.Bytes()[r.Off+6:], 0)
		}
	case prepSetSrcIP:
		p.SetSrcIP(netip.AddrFrom4(c.patch.Src))
		p.UpdateL4Checksum()
	case prepSetDstPort:
		p.SetDstPort(c.patch.DstPort)
		p.UpdateL4Checksum()
	case prepOverwriteIP:
		p.OverwriteField(packet.FieldDstIP, c.patch.Dst[:])
		p.UpdateL4Checksum()
	}

	k, err := p.FlowKey()
	if err != nil {
		t.Fatalf("prepared frame does not parse: %v", err)
	}
	ipOnly := c.mask&16 != 0
	if c.mask&1 != 0 || ipOnly {
		k.Src = c.to.Src
	}
	if c.mask&2 != 0 || ipOnly {
		k.Dst = c.to.Dst
	}
	if c.mask&4 != 0 && !ipOnly {
		k.SrcPort = c.to.SrcPort
	}
	if c.mask&8 != 0 && !ipOnly {
		k.DstPort = c.to.DstPort
	}

	ref := packet.New(append([]byte(nil), p.Bytes()...))
	put := func(f packet.Field, b []byte) {
		r, _ := p.FieldRange(f)
		copy(ref.Bytes()[r.Off:r.Off+r.Len], b)
	}
	put(packet.FieldSrcIP, k.Src[:])
	put(packet.FieldDstIP, k.Dst[:])
	put(packet.FieldSrcPort, binary.BigEndian.AppendUint16(nil, k.SrcPort))
	put(packet.FieldDstPort, binary.BigEndian.AppendUint16(nil, k.DstPort))
	packet.FixIPChecksum(ref)
	l4, _ := p.FieldRange(packet.FieldL4Header)
	if !ipOnly && !(c.udp && binary.BigEndian.Uint16(p.Bytes()[l4.Off+6:]) == 0) {
		ref.UpdateL4Checksum()
	}

	if ipOnly {
		p.SetSrcIP(netip.AddrFrom4(k.Src))
		p.SetDstIP(netip.AddrFrom4(k.Dst))
	} else {
		p.SetTuple(k)
	}
	if !bytes.Equal(p.Bytes(), ref.Bytes()) {
		t.Fatalf("%+v: the rewrite differs from a byte-by-byte rewrite and re-sum\n got %x\nwant %x", c, p.Bytes(), ref.Bytes())
	}
	got, _ := p.FlowKey()
	fresh, err := packet.New(append([]byte(nil), p.Bytes()...)).FlowKey()
	if err != nil || got != fresh {
		t.Fatalf("%+v: cached key %v, a fresh parse gives %v (%v)", c, got, fresh, err)
	}
}

func randKey(rng *rand.Rand) packet.FlowKey {
	var k packet.FlowKey
	binary.BigEndian.PutUint32(k.Src[:], rng.Uint32())
	binary.BigEndian.PutUint32(k.Dst[:], rng.Uint32())
	k.SrcPort, k.DstPort = uint16(rng.Uint32()), uint16(rng.Uint32())
	return k
}

// TestTupleSettersMatchResum drives the property over random TCP and
// UDP frames and every preparation: AH-encapsulated frames, header-only
// copies, disabled UDP checksums and keys patched by an earlier setter.
func TestTupleSettersMatchResum(t *testing.T) {
	vpn, err := nf.NewVPN(nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4000; i++ {
		payload := make([]byte, rng.Intn(160))
		rng.Read(payload)
		checkTupleRewrite(t, vpn, tupleCase{
			udp: rng.Intn(2) == 0, payload: payload, prep: uint8(i % numPreps),
			from: randKey(rng), to: randKey(rng), patch: randKey(rng), mask: uint8(rng.Intn(32)),
		})
	}
}

// FuzzSetTuple fuzzes the same property over the frame, the three
// tuples, the preparation and the field mask.
func FuzzSetTuple(f *testing.F) {
	for prep := uint8(0); prep < numPreps; prep++ {
		f.Add([]byte("payload"), prep%2 == 0, prep, uint32(0x0a000001), uint32(0xc0000209), uint16(1234), uint16(80),
			uint32(0xcb007101), uint32(0x0ac80007), uint16(20001), uint16(8443), uint8(0x0f))
	}
	f.Add([]byte{}, true, uint8(prepUDPZero), uint32(0), uint32(0xffffffff), uint16(0), uint16(0xffff),
		uint32(0xffffffff), uint32(0), uint16(0xffff), uint16(0), uint8(0x1f))
	vpn, err := nf.NewVPN(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, payload []byte, udp bool, prep uint8, src, dst uint32, sport, dport uint16,
		src2, dst2 uint32, sport2, dport2 uint16, mask uint8) {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		key := func(s, d uint32, sp, dp uint16) packet.FlowKey {
			k := packet.FlowKey{SrcPort: sp, DstPort: dp}
			binary.BigEndian.PutUint32(k.Src[:], s)
			binary.BigEndian.PutUint32(k.Dst[:], d)
			return k
		}
		checkTupleRewrite(t, vpn, tupleCase{
			udp: udp, payload: payload, prep: prep,
			from: key(src, dst, sport, dport), to: key(src2, dst2, sport2, dport2),
			patch: key(^src2, ^dst2, ^sport2, ^dport2), mask: mask,
		})
	})
}
