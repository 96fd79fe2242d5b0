package packet

import (
	"encoding/binary"
	"net/netip"
)

// BuildSpec describes a synthetic packet for the traffic generator and
// tests. Size is the full Ethernet frame length; if it is smaller than
// the minimum header chain it is raised to the minimum.
type BuildSpec struct {
	SrcMAC, DstMAC [6]byte
	SrcIP, DstIP   netip.Addr
	Proto          uint8 // ProtoTCP or ProtoUDP (0 means TCP); BuildInto panics on any other
	SrcPort        uint16
	DstPort        uint16
	TTL            uint8
	Size           int    // total frame bytes including headers
	Payload        []byte // optional explicit payload; overrides Size fill
}

// MinFrameLen is the shortest frame Build produces (Eth+IPv4+UDP).
const MinFrameLen = EthHeaderLen + IPv4HeaderLen + UDPHeaderLen

// BuildInto encodes the spec into p's buffer. The buffer must be large
// enough for the requested size, and Proto must be TCP, UDP or 0 (TCP).
//
// It only writes. Both checksums are summed from the spec's values, and
// the layout and flow key are the spec's, so nothing reads back a byte
// just stored: the header goes out in narrow stores, and a wider load
// over them — a re-sum, a parse — cannot be forwarded from the store
// buffer and waits for every one of them to commit (DESIGN.md §16).
// What it writes is what that re-sum and parse would give;
// TestBuildIntoMatchesResum holds it there.
func BuildInto(p *Packet, spec BuildSpec) {
	if spec.TTL == 0 {
		spec.TTL = 64
	}
	l4len := TCPHeaderLen
	switch spec.Proto {
	case 0:
		spec.Proto = ProtoTCP
	case ProtoTCP:
	case ProtoUDP:
		l4len = UDPHeaderLen
	default:
		panic("packet: BuildInto protocol is neither TCP nor UDP")
	}
	hdr := EthHeaderLen + IPv4HeaderLen + l4len
	size := spec.Size
	if spec.Payload != nil {
		size = hdr + len(spec.Payload)
	}
	if size < hdr {
		size = hdr
	}
	if size > len(p.buf) {
		panic("packet: BuildInto size exceeds buffer")
	}
	b := p.buf[:size]
	src, dst := spec.SrcIP.As4(), spec.DstIP.As4()
	totalLen := uint32(size - EthHeaderLen)
	segLen := totalLen - IPv4HeaderLen
	proto := uint32(spec.Proto)

	// Both sums hold a non-zero word (0x4500; proto + segLen), so each
	// folds to the value a re-sum of the written bytes gives, never to
	// its other ones'-complement zero.
	addrs := uint32(src[0])<<8 + uint32(src[1]) + uint32(src[2])<<8 + uint32(src[3]) +
		uint32(dst[0])<<8 + uint32(dst[1]) + uint32(dst[2])<<8 + uint32(dst[3])
	ipSum := 0x4500 + totalLen + uint32(spec.TTL)<<8 + proto + addrs
	l4Sum := addrs + proto + segLen + uint32(spec.SrcPort) + uint32(spec.DstPort)
	if spec.Proto == ProtoTCP {
		l4Sum += 0x5000 // data offset: 5 words
	} else {
		l4Sum += segLen // the UDP length word
	}
	if spec.Payload != nil {
		copy(b[hdr:], spec.Payload)
		l4Sum = addOnes(l4Sum, spec.Payload) // the source, not the frame
	} else {
		clear(b[hdr:]) // zeros add nothing
	}
	l4Csum := ^foldOnes(l4Sum)

	// Ethernet.
	copy(b[0:6], spec.DstMAC[:])
	copy(b[6:12], spec.SrcMAC[:])
	binary.BigEndian.PutUint16(b[12:14], EtherTypeIPv4)

	// IPv4: no options, ID 0, no fragmentation.
	ip := b[EthHeaderLen : EthHeaderLen+IPv4HeaderLen]
	binary.BigEndian.PutUint16(ip[0:2], 0x4500)
	binary.BigEndian.PutUint16(ip[2:4], uint16(totalLen))
	binary.BigEndian.PutUint32(ip[4:8], 0)
	ip[8] = spec.TTL
	ip[9] = spec.Proto
	binary.BigEndian.PutUint16(ip[10:12], ^foldOnes(ipSum))
	copy(ip[12:16], src[:])
	copy(ip[16:20], dst[:])

	// L4.
	l4 := b[EthHeaderLen+IPv4HeaderLen : hdr]
	binary.BigEndian.PutUint16(l4[0:2], spec.SrcPort)
	binary.BigEndian.PutUint16(l4[2:4], spec.DstPort)
	if spec.Proto == ProtoTCP {
		binary.BigEndian.PutUint64(l4[4:12], 0) // seq, ack
		binary.BigEndian.PutUint16(l4[12:14], 0x5000)
		binary.BigEndian.PutUint16(l4[14:16], 0) // window
		binary.BigEndian.PutUint16(l4[tcpChecksumOff:tcpChecksumOff+2], l4Csum)
		binary.BigEndian.PutUint16(l4[18:20], 0) // urgent pointer
	} else {
		if l4Csum == 0 {
			l4Csum = 0xffff // RFC 768: transmitted all-ones when computed zero
		}
		binary.BigEndian.PutUint16(l4[4:6], uint16(segLen))
		binary.BigEndian.PutUint16(l4[udpChecksumOff:udpChecksumOff+2], l4Csum)
	}

	p.wire = size
	p.layout = Layout{
		Parsed: true, L3Off: EthHeaderLen, AHOff: -1,
		L4Off: EthHeaderLen + IPv4HeaderLen, AppOff: hdr, L4Proto: spec.Proto,
	}
	p.fkey = FlowKey{Src: src, Dst: dst, SrcPort: spec.SrcPort, DstPort: spec.DstPort, Proto: spec.Proto}
	p.fkeyOK = true
}

// Build allocates a standalone packet (no pool) from the spec. Intended
// for tests; the dataplane always builds into pool buffers.
func Build(spec BuildSpec) *Packet {
	size := spec.Size
	if spec.Payload != nil {
		size = EthHeaderLen + IPv4HeaderLen + TCPHeaderLen + len(spec.Payload) + 8
	}
	if size < MinFrameLen {
		size = MinFrameLen + TCPHeaderLen
	}
	// Leave headroom for AH insertion by the VPN NF.
	p := New(make([]byte, size+2*AHHeaderLen))
	BuildInto(p, spec)
	return p
}
