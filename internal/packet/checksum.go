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

// l4Checksum locates the TCP/UDP checksum field and the length of the
// segment it covers. ok is false for packets without a TCP/UDP header
// or whose IP total length cuts the segment short of one: nothing to
// maintain.
func (p *Packet) l4Checksum(l Layout) (off, segLen int, ok bool) {
	if l.L4Off < 0 {
		return 0, 0, false
	}
	segLen = p.wire - l.L4Off
	// A header-only copy has a shortened segment; the IP total length
	// was rewritten to match, so consistency still holds below.
	if hdrLen := int(p.TotalLen()) - (l.L4Off - l.L3Off); hdrLen >= 0 && hdrLen < segLen {
		segLen = hdrLen
	}
	switch l.L4Proto {
	case ProtoTCP:
		return l.L4Off + tcpChecksumOff, segLen, segLen >= TCPHeaderLen
	case ProtoUDP:
		return l.L4Off + udpChecksumOff, segLen, segLen >= UDPHeaderLen
	}
	return 0, 0, false
}

// UpdateL4Checksum recomputes the TCP or UDP checksum in place. It is
// a no-op for packets without a TCP/UDP header or whose segment is
// truncated (header-only copies): those copies exist only inside a
// parallel stage and never reach the wire.
func (p *Packet) UpdateL4Checksum() {
	l, err := p.Layout()
	if err != nil {
		return
	}
	csumOff, segLen, ok := p.l4Checksum(l)
	if !ok {
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
	if err != nil {
		return true
	}
	csumOff, segLen, ok := p.l4Checksum(l)
	if !ok {
		return true
	}
	if l.L4Proto == ProtoUDP && binary.BigEndian.Uint16(p.buf[csumOff:csumOff+2]) == 0 {
		return true // UDP checksum disabled
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

// wordDelta is what rewriting one 16-bit word from old to new adds to a
// checksum's running sum (RFC 1624, eq. 3: ~m + m'). Deltas add.
func wordDelta(old, new uint16) uint32 { return uint32(^old) + uint32(new) }

// putAddr writes the 4-byte address at off and returns the delta of its
// two words.
func (p *Packet) putAddr(off int, a [4]byte) uint32 {
	b := p.buf[off : off+4]
	d := wordDelta(binary.BigEndian.Uint16(b[0:2]), binary.BigEndian.Uint16(a[0:2])) +
		wordDelta(binary.BigEndian.Uint16(b[2:4]), binary.BigEndian.Uint16(a[2:4]))
	copy(b, a[:])
	return d
}

// putWord writes the 16-bit word (a port) at off and returns its delta.
func (p *Packet) putWord(off int, port uint16) uint32 {
	b := p.buf[off : off+2]
	d := wordDelta(binary.BigEndian.Uint16(b), port)
	binary.BigEndian.PutUint16(b, port)
	return d
}

// SetTuple rewrites the packet's addresses and ports to k's — what a
// NAT or load balancer does to a packet — and carries both checksums
// along incrementally: the IPv4 header's for the address words, the
// TCP/UDP one for those (they are in its pseudo-header) and the ports.
// Neither is re-summed, so the cost does not grow with the packet, and
// on a packet whose checksums verified the bytes are those a re-sum
// would write. (One whose checksum was already wrong stays wrong, as it
// should: the rewrite must not launder corruption.)
//
// Only fields that differ from the packet's current key are written, so
// a caller that took FlowKey and changed one field touches that field
// alone — which is what lets NFs sharing a buffer in a no-copy group
// write disjoint fields. k.Proto is not a field a rewrite can change
// and is ignored. A UDP checksum of 0 means "none" and stays 0; one
// that comes out 0 is sent as 0xffff (RFC 768).
func (p *Packet) SetTuple(k FlowKey) {
	l := p.mustLayout()
	cur := p.fkey // warm: mustLayout parsed
	var ip, l4 uint32
	if k.Src != cur.Src {
		ip += p.putAddr(l.L3Off+12, k.Src)
		p.fkey.Src = k.Src
	}
	if k.Dst != cur.Dst {
		ip += p.putAddr(l.L3Off+16, k.Dst)
		p.fkey.Dst = k.Dst
	}
	if l.L4Off >= 0 {
		if k.SrcPort != cur.SrcPort {
			l4 += p.putWord(l.L4Off, k.SrcPort)
			p.fkey.SrcPort = k.SrcPort
		}
		if k.DstPort != cur.DstPort {
			l4 += p.putWord(l.L4Off+2, k.DstPort)
			p.fkey.DstPort = k.DstPort
		}
	}
	if ip != 0 {
		updateIPChecksum(p.buf[l.L3Off:], ip)
	}
	if ip+l4 == 0 {
		return
	}
	off, _, ok := p.l4Checksum(l)
	if !ok {
		return
	}
	c := p.buf[off : off+2]
	old := binary.BigEndian.Uint16(c)
	if l.L4Proto == ProtoUDP && old == 0 {
		return
	}
	csum := ^foldOnes(uint32(^old) + ip + l4)
	if l.L4Proto == ProtoUDP && csum == 0 {
		csum = 0xffff
	}
	binary.BigEndian.PutUint16(c, csum)
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
