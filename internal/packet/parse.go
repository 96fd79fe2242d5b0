package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// Protocol numbers and header sizes for the protocols NFP's NFs touch.
const (
	EthHeaderLen  = 14
	IPv4HeaderLen = 20 // without options; options are not generated
	TCPHeaderLen  = 20 // without options
	UDPHeaderLen  = 8
	AHHeaderLen   = 24 // next(1)+len(1)+rsvd(2)+SPI(4)+seq(4)+ICV(12)

	EtherTypeIPv4 = 0x0800

	ProtoTCP = 6
	ProtoUDP = 17
	ProtoAH  = 51 // IPsec Authentication Header
)

// Layout records the parsed header offsets of a packet. A zero Layout is
// "unparsed"; Parse fills it in.
type Layout struct {
	Parsed  bool
	L3Off   int   // start of IPv4 header
	AHOff   int   // start of AH header, or -1
	L4Off   int   // start of TCP/UDP header, or -1
	AppOff  int   // start of application payload, or -1
	L4Proto uint8 // protocol carried above IP (after AH, if present)
}

// Errors returned by Parse.
var (
	ErrTruncated   = errors.New("packet: truncated header")
	ErrNotIPv4     = errors.New("packet: not an IPv4 packet")
	ErrBadIPHeader = errors.New("packet: bad IPv4 header length")
)

// Parse decodes the Ethernet/IPv4/(AH)/TCP|UDP header chain and caches
// the offsets. It is idempotent and cheap to call repeatedly; any write
// that changes the header structure (AH insertion/removal) must call
// Invalidate first.
func (p *Packet) Parse() error {
	if p.layout.Parsed {
		return nil
	}
	b := p.Bytes()
	if len(b) < EthHeaderLen+IPv4HeaderLen {
		return ErrTruncated
	}
	if binary.BigEndian.Uint16(b[12:14]) != EtherTypeIPv4 {
		return ErrNotIPv4
	}
	l3 := EthHeaderLen
	ihl := int(b[l3]&0x0f) * 4
	if ihl < IPv4HeaderLen {
		return ErrBadIPHeader
	}
	if len(b) < l3+ihl {
		return ErrTruncated
	}
	lay := Layout{Parsed: true, L3Off: l3, AHOff: -1, L4Off: -1, AppOff: -1}
	proto := b[l3+9]
	next := l3 + ihl
	if proto == ProtoAH {
		if len(b) < next+AHHeaderLen {
			return ErrTruncated
		}
		lay.AHOff = next
		proto = b[next] // AH "next header" field
		next += AHHeaderLen
	}
	lay.L4Proto = proto
	switch proto {
	case ProtoTCP:
		if len(b) < next+TCPHeaderLen {
			return ErrTruncated
		}
		lay.L4Off = next
		lay.AppOff = next + TCPHeaderLen
	case ProtoUDP:
		if len(b) < next+UDPHeaderLen {
			return ErrTruncated
		}
		lay.L4Off = next
		lay.AppOff = next + UDPHeaderLen
	default:
		// Unknown L4: everything after IP (and AH) is opaque payload.
		lay.AppOff = next
	}
	// Warm the packed flow key together with the layout: the two caches
	// share one lifecycle (Invalidate clears both, Parse fills both), so
	// a packet whose layout is warm always has a warm key. That is what
	// makes FlowKey a pure read on packets shared across no-copy
	// parallel groups — any structural editor that Invalidates re-warms
	// both through its own next accessor, inside single-owner context.
	p.fkey = flowKeyAt(b, l3, lay.L4Off, proto)
	p.fkeyOK = true
	p.layout = lay
	return nil
}

// flowKeyAt reads the packed 5-tuple out of header bytes whose IPv4
// header starts at l3 and TCP/UDP header at l4 (negative: none), proto
// being the protocol above IP (and AH).
func flowKeyAt(b []byte, l3, l4 int, proto uint8) FlowKey {
	fk := FlowKey{
		Src:   [4]byte(b[l3+12 : l3+16]),
		Dst:   [4]byte(b[l3+16 : l3+20]),
		Proto: proto,
	}
	if l4 >= 0 {
		fk.SrcPort = binary.BigEndian.Uint16(b[l4 : l4+2])
		fk.DstPort = binary.BigEndian.Uint16(b[l4+2 : l4+4])
	}
	return fk
}

// Invalidate discards the cached layout and flow key; the next
// accessor re-parses.
func (p *Packet) Invalidate() {
	p.layout = Layout{}
	p.fkeyOK = false
}

// Layout returns the parsed layout, parsing on demand.
func (p *Packet) Layout() (Layout, error) {
	if err := p.Parse(); err != nil {
		return Layout{}, err
	}
	return p.layout, nil
}

// mustLayout returns the parsed layout, parsing on demand, and panics
// on a packet that does not parse. A warm layout always has a warm key
// (see Parse), so past this call p.fkey holds the frame's current
// tuple: the tuple setters take the words they replace from it instead
// of reading them back from the frame.
func (p *Packet) mustLayout() Layout {
	if err := p.Parse(); err != nil {
		panic(fmt.Sprintf("packet: accessor on unparseable packet: %v", err))
	}
	return p.layout
}

// --- IPv4 field accessors (zero-copy views into the buffer) ---

// SrcIP returns the IPv4 source address.
func (p *Packet) SrcIP() netip.Addr {
	l := p.mustLayout()
	return netip.AddrFrom4([4]byte(p.buf[l.L3Off+12 : l.L3Off+16]))
}

// DstIP returns the IPv4 destination address.
func (p *Packet) DstIP() netip.Addr {
	l := p.mustLayout()
	return netip.AddrFrom4([4]byte(p.buf[l.L3Off+16 : l.L3Off+20]))
}

// SetSrcIP rewrites the IPv4 source address and updates the IP header
// checksum for it; the TCP/UDP checksum is left to UpdateL4Checksum
// (or use SetTuple, which carries both).
func (p *Packet) SetSrcIP(a netip.Addr) {
	l := p.mustLayout()
	b := a.As4()
	updateIPChecksum(p.buf[l.L3Off:], addrDelta(p.fkey.Src, b))
	copy(p.buf[l.L3Off+12:l.L3Off+16], b[:])
	p.fkey.Src = b
}

// SetDstIP rewrites the IPv4 destination address and updates the IP
// header checksum for it.
func (p *Packet) SetDstIP(a netip.Addr) {
	l := p.mustLayout()
	b := a.As4()
	updateIPChecksum(p.buf[l.L3Off:], addrDelta(p.fkey.Dst, b))
	copy(p.buf[l.L3Off+16:l.L3Off+20], b[:])
	p.fkey.Dst = b
}

// TTL returns the IPv4 time-to-live.
func (p *Packet) TTL() uint8 { return p.buf[p.mustLayout().L3Off+8] }

// SetTTL rewrites the TTL and updates the IP header checksum for it.
func (p *Packet) SetTTL(ttl uint8) {
	l := p.mustLayout()
	// The TTL is the high byte of the header's fifth word.
	w := p.buf[l.L3Off+8 : l.L3Off+10]
	old := binary.BigEndian.Uint16(w)
	w[0] = ttl
	updateIPChecksum(p.buf[l.L3Off:], wordDelta(old, binary.BigEndian.Uint16(w)))
}

// Protocol returns the effective L4 protocol (after AH, if present).
func (p *Packet) Protocol() uint8 { return p.mustLayout().L4Proto }

// TotalLen returns the IPv4 total-length field.
func (p *Packet) TotalLen() uint16 {
	l := p.mustLayout()
	return binary.BigEndian.Uint16(p.buf[l.L3Off+2 : l.L3Off+4])
}

// SetTotalLen rewrites the IPv4 total-length field and re-sums the
// header checksum: it is what structural editors (AH insertion, payload
// splices, a merged-in IP header) call last, after writing other header
// bytes directly.
func (p *Packet) SetTotalLen(n uint16) {
	l := p.mustLayout()
	binary.BigEndian.PutUint16(p.buf[l.L3Off+2:l.L3Off+4], n)
	p.fixIPChecksum(l)
}

// --- L4 field accessors ---

// SrcPort returns the TCP/UDP source port, or 0 for other protocols.
func (p *Packet) SrcPort() uint16 {
	l := p.mustLayout()
	if l.L4Off < 0 {
		return 0
	}
	return binary.BigEndian.Uint16(p.buf[l.L4Off : l.L4Off+2])
}

// DstPort returns the TCP/UDP destination port, or 0 otherwise.
func (p *Packet) DstPort() uint16 {
	l := p.mustLayout()
	if l.L4Off < 0 {
		return 0
	}
	return binary.BigEndian.Uint16(p.buf[l.L4Off+2 : l.L4Off+4])
}

// SetSrcPort rewrites the TCP/UDP source port.
func (p *Packet) SetSrcPort(port uint16) {
	l := p.mustLayout()
	if l.L4Off < 0 {
		return
	}
	binary.BigEndian.PutUint16(p.buf[l.L4Off:l.L4Off+2], port)
	p.fkey.SrcPort = port
}

// SetDstPort rewrites the TCP/UDP destination port.
func (p *Packet) SetDstPort(port uint16) {
	l := p.mustLayout()
	if l.L4Off < 0 {
		return
	}
	binary.BigEndian.PutUint16(p.buf[l.L4Off+2:l.L4Off+4], port)
	p.fkey.DstPort = port
}

// Payload returns the application payload bytes (may be empty).
func (p *Packet) Payload() []byte {
	l := p.mustLayout()
	if l.AppOff < 0 || l.AppOff > p.wire {
		return nil
	}
	return p.buf[l.AppOff:p.wire]
}

// HeaderLen returns the number of bytes up to and including the L4
// header — the prefix Header-Only Copying duplicates.
func (p *Packet) HeaderLen() int {
	l := p.mustLayout()
	if l.AppOff >= 0 && l.AppOff <= p.wire {
		return l.AppOff
	}
	return p.wire
}

// HasAH reports whether the packet carries an IPsec AH header.
func (p *Packet) HasAH() bool { return p.mustLayout().AHOff >= 0 }

// fixIPChecksum recomputes the IPv4 header checksum in place.
func (p *Packet) fixIPChecksum(l Layout) {
	ihl := int(p.buf[l.L3Off]&0x0f) * 4
	h := p.buf[l.L3Off : l.L3Off+ihl]
	h[10], h[11] = 0, 0
	sum := ipChecksum(h)
	binary.BigEndian.PutUint16(h[10:12], sum)
}

// ipChecksum computes the ones-complement checksum over b.
func ipChecksum(b []byte) uint16 { return ^foldOnes(addOnes(0, b)) }
