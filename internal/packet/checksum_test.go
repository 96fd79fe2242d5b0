package packet

import (
	"net/netip"
	"testing"
)

func csumSpec(proto uint8, payload string) BuildSpec {
	return BuildSpec{
		SrcIP: netip.MustParseAddr("10.1.2.3"), DstIP: netip.MustParseAddr("10.4.5.6"),
		Proto: proto, SrcPort: 1234, DstPort: 80,
		Payload: []byte(payload),
	}
}

func TestBuildProducesValidL4Checksums(t *testing.T) {
	for _, proto := range []uint8{ProtoTCP, ProtoUDP} {
		p := Build(csumSpec(proto, "checksum me please"))
		if !p.VerifyL4Checksum() {
			t.Errorf("proto %d: built packet fails L4 verification", proto)
		}
	}
	// Odd payload lengths exercise the padding path.
	p := Build(csumSpec(ProtoTCP, "odd"))
	if !p.VerifyL4Checksum() {
		t.Error("odd-length payload fails verification")
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	p := Build(csumSpec(ProtoTCP, "some payload bytes"))
	pl := p.Payload()
	pl[0] ^= 0x01
	if p.VerifyL4Checksum() {
		t.Error("corrupted payload passes verification")
	}
	p.UpdateL4Checksum()
	if !p.VerifyL4Checksum() {
		t.Error("recomputed checksum does not verify")
	}
}

func TestChecksumAfterTupleRewrite(t *testing.T) {
	p := Build(csumSpec(ProtoTCP, "rewrite test"))
	p.SetSrcIP(netip.MustParseAddr("10.9.9.9"))
	p.SetDstPort(443)
	if p.VerifyL4Checksum() {
		t.Error("stale checksum passes after rewrite (pseudo-header changed)")
	}
	p.UpdateL4Checksum()
	if !p.VerifyL4Checksum() {
		t.Error("updated checksum fails")
	}
}

func TestChecksumNoL4(t *testing.T) {
	// Unknown L4 protocol: nothing to do, nothing to fail.
	p := Build(csumSpec(ProtoTCP, "x"))
	p.Bytes()[EthHeaderLen+9] = 99 // bogus protocol
	p.Invalidate()
	p.UpdateL4Checksum()
	if !p.VerifyL4Checksum() {
		t.Error("non-TCP/UDP packet reported invalid")
	}
	// Unparseable packet: no-op.
	garbage := New(make([]byte, 6))
	garbage.UpdateL4Checksum()
	if !garbage.VerifyL4Checksum() {
		t.Error("unparseable packet reported invalid")
	}
}

func TestUDPZeroChecksumIsDisabled(t *testing.T) {
	p := Build(csumSpec(ProtoUDP, "udp data"))
	l, _ := p.Layout()
	// Zero the checksum: RFC 768 "checksum disabled".
	p.Bytes()[l.L4Off+6] = 0
	p.Bytes()[l.L4Off+7] = 0
	if !p.VerifyL4Checksum() {
		t.Error("disabled UDP checksum treated as invalid")
	}
}

func TestHeaderOnlyCopyChecksumConsistency(t *testing.T) {
	// A header-only copy has a truncated segment; VerifyL4Checksum must
	// not read past the wire and must not panic.
	src := Build(csumSpec(ProtoTCP, "long payload that will be cut off entirely"))
	dst := New(make([]byte, 128))
	HeaderOnlyCopy(src, dst, 2)
	_ = dst.VerifyL4Checksum() // value unspecified; absence of panic is the contract
	dst.UpdateL4Checksum()
	if !dst.VerifyL4Checksum() {
		t.Error("header-only copy checksum not self-consistent after update")
	}
}

// resummed returns what the old rewrite path wrote: the same fields set
// one at a time, then both checksums summed again from scratch.
func resummed(p *Packet, k FlowKey) []byte {
	q := New(append([]byte(nil), p.Bytes()...))
	l, _ := q.Layout()
	copy(q.buf[l.L3Off+12:], k.Src[:])
	copy(q.buf[l.L3Off+16:], k.Dst[:])
	q.Invalidate()
	q.SetSrcPort(k.SrcPort)
	q.SetDstPort(k.DstPort)
	q.fixIPChecksum(l)
	q.UpdateL4Checksum()
	return q.Bytes()
}

// TestSetTupleMatchesResum: on packets whose checksums verify, patching
// writes the very bytes a full re-sum writes — every subset of the four
// fields, both protocols, odd and even payloads, and a header-only copy.
func TestSetTupleMatchesResum(t *testing.T) {
	to := FlowKey{Src: [4]byte{203, 0, 113, 1}, Dst: [4]byte{10, 200, 0, 7}, SrcPort: 20001, DstPort: 8443}
	for _, proto := range []uint8{ProtoTCP, ProtoUDP} {
		for _, payload := range []string{"", "odd", "even", "a rather longer payload, of odd length"} {
			for fields := 0; fields < 16; fields++ {
				p := Build(csumSpec(proto, payload))
				k, _ := p.FlowKey()
				if fields&1 != 0 {
					k.Src = to.Src
				}
				if fields&2 != 0 {
					k.Dst = to.Dst
				}
				if fields&4 != 0 {
					k.SrcPort = to.SrcPort
				}
				if fields&8 != 0 {
					k.DstPort = to.DstPort
				}
				want := resummed(p, k)
				p.SetTuple(k)
				if string(p.Bytes()) != string(want) {
					t.Fatalf("proto %d payload %q fields %04b: patched bytes differ from a re-sum\n got %x\nwant %x", proto, payload, fields, p.Bytes(), want)
				}
				if got, _ := p.FlowKey(); got != k {
					t.Fatalf("cached key %+v, want %+v", got, k)
				}
				if !p.VerifyL4Checksum() {
					t.Fatalf("proto %d fields %04b: checksum does not verify", proto, fields)
				}
			}
		}
	}

	// A header-only copy carries its L4 header: the patch lands there too.
	src := Build(csumSpec(ProtoTCP, "payload the copy leaves behind"))
	hdr := New(make([]byte, 128))
	HeaderOnlyCopy(src, hdr, 2)
	hdr.UpdateL4Checksum()
	k, _ := hdr.FlowKey()
	k.Src, k.Dst = to.Src, to.Dst
	want := resummed(hdr, k)
	hdr.SetTuple(k)
	if string(hdr.Bytes()) != string(want) {
		t.Fatalf("header-only copy: patched bytes differ from a re-sum")
	}
}

// TestSetTupleUDPRules: a UDP checksum of 0 means "none" and stays 0; one
// that comes out 0 goes on the wire as 0xffff, and patches onward from
// there.
func TestSetTupleUDPRules(t *testing.T) {
	p := Build(csumSpec(ProtoUDP, "udp data"))
	l, _ := p.Layout()
	c := p.Bytes()[l.L4Off+6 : l.L4Off+8]
	c[0], c[1] = 0, 0
	k, _ := p.FlowKey()
	k.Src, k.SrcPort = [4]byte{203, 0, 113, 1}, 20000
	p.SetTuple(k)
	if c[0] != 0 || c[1] != 0 {
		t.Errorf("disabled UDP checksum became %x", c)
	}

	// Search source ports for a tuple whose checksum sums to zero.
	found := false
	for port := 1; port < 1<<16 && !found; port++ {
		p := Build(csumSpec(ProtoUDP, "udp data"))
		k, _ := p.FlowKey()
		k.SrcPort = uint16(port)
		want := resummed(p, k)
		if want[l.L4Off+6] != 0xff || want[l.L4Off+7] != 0xff {
			continue
		}
		found = true
		p.SetTuple(k)
		if string(p.Bytes()) != string(want) {
			t.Errorf("computed-zero checksum: got %x, want ffff", p.Bytes()[l.L4Off+6:l.L4Off+8])
		}
		k.SrcPort = 4321 // and away from 0xffff again
		want = resummed(p, k)
		p.SetTuple(k)
		if string(p.Bytes()) != string(want) {
			t.Errorf("patching on from 0xffff: got %x, want %x", p.Bytes()[l.L4Off+6:l.L4Off+8], want[l.L4Off+6:l.L4Off+8])
		}
	}
	if !found {
		t.Fatal("no source port gives a zero checksum: the 0xffff rule went untested")
	}
}

// TestSetTupleWritesOnlyWhatChanged: fields equal to the packet's own
// stay untouched, bytes and checksums both — two NFs sharing a buffer
// write disjoint fields — and a wrong checksum stays wrong by exactly
// as much.
func TestSetTupleWritesOnlyWhatChanged(t *testing.T) {
	p := Build(csumSpec(ProtoTCP, "shared buffer"))
	before := append([]byte(nil), p.Bytes()...)
	k, _ := p.FlowKey()
	p.SetTuple(k)
	if string(p.Bytes()) != string(before) {
		t.Error("rewriting a packet to its own tuple changed it")
	}

	p.Payload()[0] ^= 0x40 // corrupt: the checksum no longer verifies
	k.Dst = [4]byte{10, 200, 0, 1}
	p.SetTuple(k)
	if p.VerifyL4Checksum() {
		t.Error("an address rewrite repaired a corrupt packet's checksum")
	}
	p.Payload()[0] ^= 0x40
	if !p.VerifyL4Checksum() {
		t.Error("checksum does not verify once the corruption is undone")
	}
}

// TestSettersPatchIPChecksum: SetSrcIP, SetDstIP and SetTTL update the
// header checksum for the words they changed and leave the bytes a
// re-sum would.
func TestSettersPatchIPChecksum(t *testing.T) {
	for ttl := 0; ttl < 256; ttl += 5 {
		p := Build(csumSpec(ProtoTCP, "ttl"))
		p.SetTTL(uint8(ttl))
		p.SetSrcIP(netip.AddrFrom4([4]byte{byte(ttl), 255, 0, byte(ttl)}))
		p.SetDstIP(netip.AddrFrom4([4]byte{255, 255, byte(ttl), 1}))
		got := append([]byte(nil), p.Bytes()...)
		l, _ := p.Layout()
		p.fixIPChecksum(l)
		if string(got) != string(p.Bytes()) {
			t.Fatalf("ttl %d: patched IP checksum %x, re-summed %x", ttl, got[l.L3Off+10:l.L3Off+12], p.Bytes()[l.L3Off+10:l.L3Off+12])
		}
		if p.TTL() != uint8(ttl) {
			t.Fatalf("TTL %d, want %d", p.TTL(), ttl)
		}
	}
}
