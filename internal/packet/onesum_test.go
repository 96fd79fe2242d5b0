package packet

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"net/netip"
	"strconv"
	"testing"
)

// refOnes is the RFC 1071 reference: one big-endian 16-bit word per
// step (an odd last byte padded with zero), in an accumulator wide
// enough never to drop a carry, folded.
func refOnes(sum uint32, b []byte) uint16 {
	acc := uint64(sum)
	for i := 0; i+1 < len(b); i += 2 {
		acc += uint64(binary.BigEndian.Uint16(b[i:]))
	}
	if len(b)%2 == 1 {
		acc += uint64(b[len(b)-1]) << 8
	}
	for acc > 0xffff {
		acc = acc&0xffff + acc>>16
	}
	return uint16(acc)
}

// TestAddOnesMatchesReference: random contents, every length 0–2048
// at each start alignment 0–7, constant all-0x00 and all-0xFF buffers,
// each with no carried-in sum and with one of sums, cycling, up to near
// 2^32.
func TestAddOnesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	buf := make([]byte, 2048+8)
	zeros := make([]byte, len(buf))
	ones := bytes.Repeat([]byte{0xff}, len(buf))
	sums := []uint32{0, 1, 0xffff, 0x10000, 0x7ffff, 0xfffeffff, 0xffff0000, 0xfffffff0, 0xffffffff}
	for n := 0; n <= 2048; n++ {
		rng.Read(buf)
		for align := 0; align < 8; align++ {
			for _, src := range [][]byte{buf, zeros, ones} {
				b := src[align : align+n]
				for _, sum := range []uint32{0, sums[(8*n+align)%len(sums)]} {
					if got, want := foldOnes(addOnes(sum, b)), refOnes(sum, b); got != want {
						t.Fatalf("len %d align %d sum %#x first byte %#x: got %#04x, want %#04x", n, align, sum, src[0], got, want)
					}
				}
			}
		}
	}
}

// TestL4ChecksumMatchesReference: what UpdateL4Checksum writes, on full
// frames of both protocols and on header-only copies of them, is the
// reference checksum over pseudo-header and segment, and verifies.
func TestL4ChecksumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, proto := range []uint8{ProtoTCP, ProtoUDP} {
		for n := 0; n < 1500; n += 1 + rng.Intn(41) {
			payload := make([]byte, n)
			rng.Read(payload)
			p := Build(BuildSpec{
				SrcIP: netip.MustParseAddr("10.1.2.3"), DstIP: netip.MustParseAddr("10.4.5.6"),
				Proto: proto, SrcPort: uint16(n), DstPort: 80, Payload: payload,
			})
			hdr := New(make([]byte, 128))
			HeaderOnlyCopy(p, hdr, 2)
			hdr.UpdateL4Checksum()
			for _, q := range []*Packet{p, hdr} {
				checkL4Reference(t, q)
			}
		}
	}
}

func checkL4Reference(t *testing.T, p *Packet) {
	t.Helper()
	l, _ := p.Layout()
	off, segLen, ok := p.l4Checksum(l)
	if !ok {
		t.Fatal("no L4 checksum")
	}
	seg := append([]byte(nil), p.buf[l.L4Off:l.L4Off+segLen]...)
	seg[off-l.L4Off], seg[off-l.L4Off+1] = 0, 0
	pseudo := append(append([]byte(nil), p.buf[l.L3Off+12:l.L3Off+20]...), 0, l.L4Proto, byte(segLen>>8), byte(segLen))
	want := ^refOnes(uint32(refOnes(0, pseudo)), seg)
	if l.L4Proto == ProtoUDP && want == 0 {
		want = 0xffff
	}
	if got := binary.BigEndian.Uint16(p.buf[off:]); got != want {
		t.Fatalf("proto %d segment %d: checksum %#04x, want %#04x", l.L4Proto, segLen, got, want)
	}
	if !p.VerifyL4Checksum() {
		t.Fatalf("proto %d segment %d: checksum does not verify", l.L4Proto, segLen)
	}
}

// TestUDPComputedZeroSentAsOnes: a UDP segment whose checksum computes
// to 0 carries 0xffff (RFC 768), and that verifies.
func TestUDPComputedZeroSentAsOnes(t *testing.T) {
	p := Build(csumSpec(ProtoUDP, "udp data\x00\x00"))
	l, _ := p.Layout()
	c := p.buf[l.L4Off+6 : l.L4Off+8]
	// The last payload word set to the checksum of the rest brings the
	// sum to 0xffff, and its complement to 0.
	copy(p.buf[p.wire-2:], c)
	p.UpdateL4Checksum()
	if c[0] != 0xff || c[1] != 0xff {
		t.Fatalf("computed-zero UDP checksum written as %x, want ffff", c)
	}
	if !p.VerifyL4Checksum() {
		t.Fatal("0xffff UDP checksum does not verify")
	}
	checkL4Reference(t, p)
}

// BenchmarkL4Checksum is a full TCP checksum re-sum — what the VPN,
// the merger after a header merge op and the packet builder pay.
func BenchmarkL4Checksum(b *testing.B) {
	for _, size := range []int{64, 576, 1500} {
		b.Run(strconv.Itoa(size), func(b *testing.B) {
			p := Build(BuildSpec{
				SrcIP: netip.MustParseAddr("10.1.2.3"), DstIP: netip.MustParseAddr("10.4.5.6"),
				Proto: ProtoTCP, SrcPort: 1, DstPort: 80, Size: size,
			})
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				p.UpdateL4Checksum()
			}
		})
	}
}
