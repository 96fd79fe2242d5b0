package packet

import "encoding/binary"

// L4 checksum maintenance. Address- and port-rewriting NFs (NAT, load
// balancer) and the merger leave the TCP/UDP checksum stale after
// modifying the tuple; UpdateL4Checksum recomputes it over the
// pseudo-header + segment, as a real middlebox must.

// tcp/udp checksum field offsets within the L4 header.
const (
	tcpChecksumOff = 16
	udpChecksumOff = 6
)

// UpdateL4Checksum recomputes the TCP or UDP checksum in place. It is
// a no-op for packets without a TCP/UDP header or whose segment is
// truncated (header-only copies): those copies exist only inside a
// parallel stage and never reach the wire.
func (p *Packet) UpdateL4Checksum() {
	l, err := p.Layout()
	if err != nil || l.L4Off < 0 {
		return
	}
	segLen := p.wire - l.L4Off
	ipTotal := int(p.TotalLen())
	// A header-only copy has a shortened segment; the IP total length
	// was rewritten to match, so consistency still holds below.
	if hdrLen := ipTotal - (l.L4Off - l.L3Off); hdrLen >= 0 && hdrLen < segLen {
		segLen = hdrLen
	}
	var csumOff int
	switch l.L4Proto {
	case ProtoTCP:
		if segLen < TCPHeaderLen {
			return
		}
		csumOff = l.L4Off + tcpChecksumOff
	case ProtoUDP:
		if segLen < UDPHeaderLen {
			return
		}
		csumOff = l.L4Off + udpChecksumOff
	default:
		return
	}
	p.buf[csumOff] = 0
	p.buf[csumOff+1] = 0
	sum := p.pseudoHeaderSum(l, segLen)
	sum = addOnes(sum, p.buf[l.L4Off:l.L4Off+segLen])
	csum := ^foldOnes(sum)
	if l.L4Proto == ProtoUDP && csum == 0 {
		csum = 0xffff // RFC 768: transmitted all-ones when computed zero
	}
	binary.BigEndian.PutUint16(p.buf[csumOff:csumOff+2], csum)
}

// VerifyL4Checksum reports whether the TCP/UDP checksum verifies. It
// returns true for packets without an L4 header (nothing to check).
func (p *Packet) VerifyL4Checksum() bool {
	l, err := p.Layout()
	if err != nil || l.L4Off < 0 {
		return true
	}
	segLen := p.wire - l.L4Off
	if hdrLen := int(p.TotalLen()) - (l.L4Off - l.L3Off); hdrLen >= 0 && hdrLen < segLen {
		segLen = hdrLen
	}
	switch l.L4Proto {
	case ProtoTCP:
		if segLen < TCPHeaderLen {
			return true
		}
	case ProtoUDP:
		if segLen < UDPHeaderLen {
			return true
		}
		if binary.BigEndian.Uint16(p.buf[l.L4Off+udpChecksumOff:l.L4Off+udpChecksumOff+2]) == 0 {
			return true // UDP checksum disabled
		}
	default:
		return true
	}
	sum := p.pseudoHeaderSum(l, segLen)
	sum = addOnes(sum, p.buf[l.L4Off:l.L4Off+segLen])
	return foldOnes(sum) == 0xffff
}

// pseudoHeaderSum computes the IPv4 pseudo-header contribution.
func (p *Packet) pseudoHeaderSum(l Layout, segLen int) uint32 {
	var sum uint32
	sum = addOnes(sum, p.buf[l.L3Off+12:l.L3Off+20]) // src + dst
	sum += uint32(l.L4Proto)
	sum += uint32(segLen)
	return sum
}

// updateIPChecksum adjusts the checksum of the IPv4 header h for 16-bit
// words rewritten in place (RFC 1624, eq. 3), without re-summing the
// header: delta is the sum of every changed word's old value,
// complemented, and its new value. On a header whose checksum verified
// the result is the checksum a full re-sum would write.
func updateIPChecksum(h []byte, delta uint32) {
	sum := uint32(^binary.BigEndian.Uint16(h[10:12])) + delta
	binary.BigEndian.PutUint16(h[10:12], ^foldOnes(sum))
}

// addOnes accumulates b into a ones-complement running sum.
func addOnes(sum uint32, b []byte) uint32 {
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	return sum
}

// foldOnes folds a 32-bit running sum to 16 bits.
func foldOnes(sum uint32) uint16 {
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	return uint16(sum)
}
