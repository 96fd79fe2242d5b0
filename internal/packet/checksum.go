package packet

import (
	"encoding/binary"
	"math/bits"
)

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
// Four fixed words, summed inline: addOnes is too large to inline, and
// its call would cost a 64 B frame more than these adds.
func (p *Packet) pseudoHeaderSum(l Layout, segLen int) uint32 {
	a := p.buf[l.L3Off+12 : l.L3Off+20] // src + dst
	return uint32(binary.BigEndian.Uint16(a[0:2])) + uint32(binary.BigEndian.Uint16(a[2:4])) +
		uint32(binary.BigEndian.Uint16(a[4:6])) + uint32(binary.BigEndian.Uint16(a[6:8])) +
		uint32(l.L4Proto) + uint32(segLen)
}

// wordDelta is what rewriting one 16-bit word from old to new adds to a
// checksum's running sum (RFC 1624, eq. 3: ~m + m'). Deltas add.
func wordDelta(old, new uint16) uint32 { return uint32(^old) + uint32(new) }

// addrDelta is what rewriting a 4-byte address from old to new adds to
// a checksum's running sum: the deltas of its two words.
func addrDelta(old, new [4]byte) uint32 {
	return wordDelta(binary.BigEndian.Uint16(old[0:2]), binary.BigEndian.Uint16(new[0:2])) +
		wordDelta(binary.BigEndian.Uint16(old[2:4]), binary.BigEndian.Uint16(new[2:4]))
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
	// The old words come from the key (see mustLayout), not from the
	// frame, whose bytes may still sit on the core that wrote them.
	cur := p.fkey
	var ip, l4 uint32
	if k.Src != cur.Src {
		ip += addrDelta(cur.Src, k.Src)
		copy(p.buf[l.L3Off+12:l.L3Off+16], k.Src[:])
		p.fkey.Src = k.Src
	}
	if k.Dst != cur.Dst {
		ip += addrDelta(cur.Dst, k.Dst)
		copy(p.buf[l.L3Off+16:l.L3Off+20], k.Dst[:])
		p.fkey.Dst = k.Dst
	}
	if l.L4Off >= 0 {
		if k.SrcPort != cur.SrcPort {
			l4 += wordDelta(cur.SrcPort, k.SrcPort)
			binary.BigEndian.PutUint16(p.buf[l.L4Off:l.L4Off+2], k.SrcPort)
			p.fkey.SrcPort = k.SrcPort
		}
		if k.DstPort != cur.DstPort {
			l4 += wordDelta(cur.DstPort, k.DstPort)
			binary.BigEndian.PutUint16(p.buf[l.L4Off+2:l.L4Off+4], k.DstPort)
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

// addOnes adds b, as big-endian 16-bit words (an odd last byte padded
// with zero), to a ones-complement running sum. It sums little-endian
// 64-bit words with deferred carries and folds once at the end: RFC 1071
// §2(B) — byte order is a swap of the folded result, and 2^16 ≡ 1
// modulo 0xffff, so a 64-bit word is four 16-bit words summed. The
// return is congruent to sum + Σ words modulo 0xffff, and zero only if
// both are: foldOnes of it is the 16-bit one-word-at-a-time sum's,
// except that a carry out of 32 bits wraps around instead of being lost.
func addOnes(sum uint32, b []byte) uint32 {
	var acc, c uint64
	for len(b) >= 32 {
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(b[0:8]), c)
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(b[8:16]), c)
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(b[16:24]), c)
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(b[24:32]), c)
		b = b[32:]
	}
	for len(b) >= 8 {
		acc, c = bits.Add64(acc, binary.LittleEndian.Uint64(b), c)
		b = b[8:]
	}
	// The tail: each piece starts at an even offset, so its 16-bit
	// words stay words.
	var t uint64
	if len(b) >= 4 {
		t = uint64(binary.LittleEndian.Uint32(b))
		b = b[4:]
	}
	if len(b) >= 2 {
		t += uint64(binary.LittleEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		t += uint64(b[0])
	}
	acc, c = bits.Add64(acc, t, c)
	acc, c = bits.Add64(acc, 0, c)
	acc += c // acc was all ones only if c is now 0
	// Fold 64 → 16 bits, swap to big-endian and add in sum.
	acc = acc>>32 + acc&0xffffffff
	acc = acc>>32 + acc&0xffffffff
	acc = acc>>16 + acc&0xffff
	acc = acc>>16 + acc&0xffff
	r := uint64(sum) + uint64(bits.ReverseBytes16(uint16(acc)))
	return uint32(r>>32) + uint32(r)
}

// foldOnes folds a 32-bit running sum to 16 bits.
func foldOnes(sum uint32) uint16 {
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	return uint16(sum)
}
