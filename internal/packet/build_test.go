package packet

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"net/netip"
	"testing"
)

// buildBufLen is a pool buffer's size: an MTU frame plus AH headroom.
const buildBufLen = 2048

// refBuild is the builder as a re-sum: every header field written into
// a zeroed frame, then both checksums summed over the bytes written and
// the layout parsed from them.
func refBuild(spec BuildSpec) *Packet {
	if spec.TTL == 0 {
		spec.TTL = 64
	}
	if spec.Proto == 0 {
		spec.Proto = ProtoTCP
	}
	hdr := EthHeaderLen + IPv4HeaderLen + UDPHeaderLen
	if spec.Proto == ProtoTCP {
		hdr = EthHeaderLen + IPv4HeaderLen + TCPHeaderLen
	}
	size := max(spec.Size, hdr)
	if spec.Payload != nil {
		size = hdr + len(spec.Payload)
	}
	b := make([]byte, size)
	copy(b[0:6], spec.DstMAC[:])
	copy(b[6:12], spec.SrcMAC[:])
	binary.BigEndian.PutUint16(b[12:14], EtherTypeIPv4)
	ip := b[EthHeaderLen:]
	ip[0] = 0x45
	binary.BigEndian.PutUint16(ip[2:4], uint16(size-EthHeaderLen))
	ip[8] = spec.TTL
	ip[9] = spec.Proto
	src, dst := spec.SrcIP.As4(), spec.DstIP.As4()
	copy(ip[12:16], src[:])
	copy(ip[16:20], dst[:])
	l4 := ip[IPv4HeaderLen:]
	binary.BigEndian.PutUint16(l4[0:2], spec.SrcPort)
	binary.BigEndian.PutUint16(l4[2:4], spec.DstPort)
	if spec.Proto == ProtoTCP {
		l4[12] = 5 << 4
	} else {
		binary.BigEndian.PutUint16(l4[4:6], uint16(size-EthHeaderLen-IPv4HeaderLen))
	}
	copy(b[hdr:], spec.Payload)
	p := New(b)
	p.fixIPChecksum(Layout{L3Off: EthHeaderLen})
	p.UpdateL4Checksum()
	return p
}

// checkBuild builds spec into a buffer full of garbage — the builder
// must write every header byte — and holds the frame to a re-sum of
// its own copy and to refBuild, and the layout and flow key BuildInto
// set, before any accessor could parse, to a fresh Parse of the copy.
func checkBuild(t *testing.T, spec BuildSpec) *Packet {
	t.Helper()
	buf := make([]byte, buildBufLen)
	for i := range buf {
		buf[i] = byte(0xa5 ^ i)
	}
	p := New(buf)
	BuildInto(p, spec)
	if !p.layout.Parsed || !p.fkeyOK {
		t.Fatalf("%+v: BuildInto left the layout or flow key cold", spec)
	}

	cp := New(append([]byte(nil), p.Bytes()...))
	cp.fixIPChecksum(Layout{L3Off: EthHeaderLen})
	cp.UpdateL4Checksum()
	if !bytes.Equal(p.Bytes(), cp.Bytes()) {
		t.Fatalf("%+v: checksums differ from a re-sum\n got %x\nwant %x", spec, p.Bytes(), cp.Bytes())
	}
	if ref := refBuild(spec); !bytes.Equal(p.Bytes(), ref.Bytes()) {
		t.Fatalf("%+v: frame differs from the field-by-field build\n got %x\nwant %x", spec, p.Bytes(), ref.Bytes())
	}

	fresh := New(append([]byte(nil), p.Bytes()...))
	if err := fresh.Parse(); err != nil {
		t.Fatalf("%+v: built frame does not parse: %v", spec, err)
	}
	if p.layout != fresh.layout || p.fkey != fresh.fkey {
		t.Fatalf("%+v: layout/key %+v %v, a parse gives %+v %v", spec, p.layout, p.fkey, fresh.layout, fresh.fkey)
	}
	return p
}

// TestBuildIntoMatchesResum: what BuildInto derives from the spec —
// both checksums, the layout, the flow key — is what the bytes it
// wrote re-sum and parse to, over both protocols, sizes below the
// header minimum, 64 B and the datacenter mix, explicit payloads of odd
// and even length, the extreme addresses and ports, and TTL 0.
func TestBuildIntoMatchesResum(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	addrs := []netip.Addr{
		netip.MustParseAddr("0.0.0.0"), netip.MustParseAddr("255.255.255.255"),
		netip.MustParseAddr("10.1.2.3"), netip.MustParseAddr("192.0.2.200"),
	}
	ports := []uint16{0, 0xffff, 80, 4242}
	sizes := []int{0, 1, 41, 42, 53, 54, 55, 64, 200, 576, 1500}
	ff := bytes.Repeat([]byte{0xff}, 1500)
	payloads := [][]byte{nil, {}, {0x01}, ff[:1], ff[:2], ff[:7], ff[:1446]}
	for _, n := range []int{1, 2, 3, 17, 64, 999, 1446} {
		pl := make([]byte, n)
		rng.Read(pl)
		payloads = append(payloads, pl)
	}
	for _, proto := range []uint8{0, ProtoTCP, ProtoUDP} {
		for _, src := range addrs {
			for _, dst := range addrs {
				for _, sp := range ports {
					for _, ttl := range []uint8{0, 1, 255} {
						spec := BuildSpec{
							SrcMAC: [6]byte{2, 0, 0, 0, 0, byte(sp)}, DstMAC: [6]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xfe},
							SrcIP: src, DstIP: dst, Proto: proto,
							SrcPort: sp, DstPort: ports[rng.Intn(len(ports))], TTL: ttl,
						}
						for _, size := range sizes {
							spec.Size = size
							checkBuild(t, spec)
						}
						for _, pl := range payloads {
							spec.Payload = pl
							checkBuild(t, spec)
						}
					}
				}
			}
		}
	}
	if p := checkBuild(t, BuildSpec{SrcIP: addrs[2], DstIP: addrs[3]}); p.TTL() != 64 || p.Protocol() != ProtoTCP || p.Len() != 54 {
		t.Fatalf("zero spec: TTL %d proto %d len %d, want 64, TCP, 54", p.TTL(), p.Protocol(), p.Len())
	}
}

// TestBuildIntoUDPComputedZero: a UDP spec whose checksum folds to
// zero goes out as 0xffff (RFC 768), as a re-sum writes it.
func TestBuildIntoUDPComputedZero(t *testing.T) {
	spec := BuildSpec{
		SrcIP: netip.MustParseAddr("10.1.2.3"), DstIP: netip.MustParseAddr("10.4.5.6"),
		Proto: ProtoUDP, DstPort: 53, Size: 64,
	}
	for sp := 0; sp <= 0xffff; sp++ {
		spec.SrcPort = uint16(sp)
		// The re-sum writes 0xffff only for a sum that folds to zero:
		// the complement of a fold of 0 would be it too, but proto and
		// length are in every sum.
		c := refBuild(spec).Bytes()[EthHeaderLen+IPv4HeaderLen+udpChecksumOff:]
		if c[0] == 0xff && c[1] == 0xff {
			checkBuild(t, spec)
			return
		}
	}
	t.Fatal("no source port makes the UDP checksum fold to zero")
}

// TestBuildIntoRejectsOtherProtocols: BuildSpec builds TCP or UDP and
// nothing else.
func TestBuildIntoRejectsOtherProtocols(t *testing.T) {
	for _, proto := range []uint8{1, ProtoAH, 255} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("protocol %d: BuildInto did not panic", proto)
				}
			}()
			BuildInto(New(make([]byte, buildBufLen)), BuildSpec{
				SrcIP: netip.MustParseAddr("10.1.2.3"), DstIP: netip.MustParseAddr("10.4.5.6"), Proto: proto,
			})
		}()
	}
}

// FuzzBuildInto holds the TestBuildIntoMatchesResum property over
// arbitrary specs.
func FuzzBuildInto(f *testing.F) {
	f.Add(true, uint16(64), uint32(0x0a010203), uint32(0x0a040506), uint16(1234), uint16(80), uint8(0), []byte(nil), false)
	f.Add(false, uint16(0), uint32(0), uint32(0xffffffff), uint16(0xffff), uint16(0), uint8(255), []byte("odd"), true)
	f.Add(false, uint16(1500), uint32(0xffffffff), uint32(0), uint16(0), uint16(0xffff), uint8(1), []byte{0xff, 0xff}, true)
	f.Fuzz(func(t *testing.T, tcp bool, size uint16, src, dst uint32, sp, dp uint16, ttl uint8, payload []byte, explicit bool) {
		spec := BuildSpec{
			SrcMAC: [6]byte{byte(src), byte(dst)}, DstMAC: [6]byte{byte(sp), byte(dp), ttl},
			SrcIP: netip.AddrFrom4([4]byte(binary.BigEndian.AppendUint32(nil, src))),
			DstIP: netip.AddrFrom4([4]byte(binary.BigEndian.AppendUint32(nil, dst))),
			Proto: ProtoUDP, SrcPort: sp, DstPort: dp, TTL: ttl,
			Size: int(size) % buildBufLen,
		}
		if tcp {
			spec.Proto = ProtoTCP
		}
		if explicit {
			spec.Payload = payload[:min(len(payload), buildBufLen-EthHeaderLen-IPv4HeaderLen-TCPHeaderLen)]
			if spec.Payload == nil {
				spec.Payload = []byte{}
			}
		}
		checkBuild(t, spec)
	})
}
