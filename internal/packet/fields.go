package packet

import (
	"encoding/binary"
	"fmt"
)

// Field names a region of a packet that NFs read or write. The set
// mirrors the columns of the paper's Table 2 (SIP, DIP, SPORT, DPORT,
// Payload) plus the structural regions the merging operations of §5.3
// reference (the IP header and the AH header).
type Field uint8

const (
	// FieldNone is the zero Field; it resolves to an empty range.
	FieldNone Field = iota
	// FieldSrcIP is the IPv4 source address (4 bytes).
	FieldSrcIP
	// FieldDstIP is the IPv4 destination address (4 bytes).
	FieldDstIP
	// FieldSrcPort is the TCP/UDP source port (2 bytes).
	FieldSrcPort
	// FieldDstPort is the TCP/UDP destination port (2 bytes).
	FieldDstPort
	// FieldTTL is the IPv4 time-to-live (1 byte).
	FieldTTL
	// FieldPayload is the application payload (variable).
	FieldPayload
	// FieldIPHeader is the whole IPv4 header.
	FieldIPHeader
	// FieldAH is the IPsec Authentication Header, if present.
	FieldAH
	// FieldL4Header is the whole TCP/UDP header.
	FieldL4Header

	numFields
)

var fieldNames = [numFields]string{
	FieldNone:     "none",
	FieldSrcIP:    "sip",
	FieldDstIP:    "dip",
	FieldSrcPort:  "sport",
	FieldDstPort:  "dport",
	FieldTTL:      "ttl",
	FieldPayload:  "payload",
	FieldIPHeader: "ip",
	FieldAH:       "ah",
	FieldL4Header: "l4",
}

func (f Field) String() string {
	if int(f) < len(fieldNames) {
		return fieldNames[f]
	}
	return fmt.Sprintf("field(%d)", uint8(f))
}

// Overlaps reports whether two fields occupy overlapping byte ranges in
// any packet. Dirty Memory Reusing (§4.2, OP#1) allows two NFs to share
// a packet copy when the fields they touch do NOT overlap.
func (f Field) Overlaps(g Field) bool {
	if f == FieldNone || g == FieldNone {
		return false
	}
	if f == g {
		return true
	}
	in := func(a, container Field) bool {
		switch container {
		case FieldIPHeader:
			return a == FieldSrcIP || a == FieldDstIP || a == FieldTTL
		case FieldL4Header:
			return a == FieldSrcPort || a == FieldDstPort
		}
		return false
	}
	return in(f, g) || in(g, f)
}

// Range is a resolved [Off, Off+Len) byte range within a packet.
type Range struct {
	Off, Len int
}

// FieldRange resolves f against the packet's parsed layout. It returns
// ok=false when the packet does not contain the field (e.g. FieldAH on a
// packet without an AH header, or L4 fields on a non-TCP/UDP packet).
func (p *Packet) FieldRange(f Field) (Range, bool) {
	l, err := p.Layout()
	if err != nil {
		return Range{}, false
	}
	switch f {
	case FieldSrcIP:
		return Range{l.L3Off + 12, 4}, true
	case FieldDstIP:
		return Range{l.L3Off + 16, 4}, true
	case FieldTTL:
		return Range{l.L3Off + 8, 1}, true
	case FieldIPHeader:
		ihl := int(p.buf[l.L3Off]&0x0f) * 4
		return Range{l.L3Off, ihl}, true
	case FieldSrcPort:
		if l.L4Off < 0 {
			return Range{}, false
		}
		return Range{l.L4Off, 2}, true
	case FieldDstPort:
		if l.L4Off < 0 {
			return Range{}, false
		}
		return Range{l.L4Off + 2, 2}, true
	case FieldL4Header:
		if l.L4Off < 0 || l.AppOff < 0 {
			return Range{}, false
		}
		return Range{l.L4Off, l.AppOff - l.L4Off}, true
	case FieldPayload:
		if l.AppOff < 0 || l.AppOff > p.wire {
			return Range{}, false
		}
		return Range{l.AppOff, p.wire - l.AppOff}, true
	case FieldAH:
		if l.AHOff < 0 {
			return Range{}, false
		}
		return Range{l.AHOff, AHHeaderLen}, true
	}
	return Range{}, false
}

// FieldBytes returns the bytes of field f, or nil if absent.
func (p *Packet) FieldBytes(f Field) []byte {
	r, ok := p.FieldRange(f)
	if !ok {
		return nil
	}
	return p.buf[r.Off : r.Off+r.Len]
}

// OverwriteField replaces the value of f — an address, the TTL or a
// port: the fixed-length fields whose value fixes no header offset and
// covers no checksum word — with data, of the field's length. Nothing
// moves, so the parsed layout stays, the cached flow key is read again
// from the bytes (the caches stay warm: the packet may be shared right
// after), and a rewrite inside the IPv4 header updates its checksum for
// the words that changed. Any other field, one the packet lacks or
// another length panics: the caller has ranged both.
func (p *Packet) OverwriteField(f Field, data []byte) {
	r, ok := p.FieldRange(f)
	if !ok || r.Len != len(data) {
		panic(fmt.Sprintf("packet: %d bytes over field %v (present %v, %d bytes)", len(data), f, ok, r.Len))
	}
	l, off, end := p.layout, r.Off, r.Off+r.Len
	switch f {
	case FieldSrcIP, FieldDstIP, FieldTTL:
		// The 16-bit words of the IPv4 header the field touches.
		a, b := off-(off-l.L3Off)&1, end+(end-l.L3Off)&1
		var delta uint32
		for i := a; i < b; i += 2 {
			delta += uint32(^binary.BigEndian.Uint16(p.buf[i : i+2]))
		}
		copy(p.buf[off:end], data)
		for i := a; i < b; i += 2 {
			delta += uint32(binary.BigEndian.Uint16(p.buf[i : i+2]))
		}
		updateIPChecksum(p.buf[l.L3Off:], delta)
	case FieldSrcPort, FieldDstPort:
		copy(p.buf[off:end], data)
	default:
		panic(fmt.Sprintf("packet: field %v cannot be overwritten in place", f))
	}
	p.fkey = flowKeyAt(p.buf, l.L3Off, l.L4Off, l.L4Proto)
}

// InsertAt splices data into the packet at offset off. It moves the
// shorter side of the edit point when the headroom allows: the bytes in
// front of off into the headroom (the buffer then starts earlier, so no
// offset below off changes), or else the bytes from off on into the
// tailroom. With room on neither side it fails and changes nothing. The
// layout is invalidated.
func (p *Packet) InsertAt(off int, data []byte) error {
	n := len(data)
	if off < 0 || off > p.wire {
		return fmt.Errorf("packet: insert offset %d outside wire length %d", off, p.wire)
	}
	front, back := n <= int(p.head), p.wire+n <= len(p.buf)
	switch {
	case front && (off < p.wire-off || !back):
		p.moveHead(int(p.head) - n)
		copy(p.buf, p.buf[n:n+off])
	case back:
		copy(p.buf[off+n:], p.buf[off:p.wire])
	default:
		return fmt.Errorf("packet: insert of %d bytes overflows %d-byte buffer (wire %d, headroom %d)",
			n, len(p.buf), p.wire, p.head)
	}
	copy(p.buf[off:], data)
	p.wire += n
	p.Invalidate()
	return nil
}

// RemoveAt splices n bytes out of the packet at offset off, moving the
// shorter side of the gap over it: the bytes in front (the freed bytes
// join the headroom) or the bytes behind. A frame without headroom, a
// standalone one, always moves the bytes behind. The layout is
// invalidated.
func (p *Packet) RemoveAt(off, n int) error {
	if off < 0 || n < 0 || off+n > p.wire {
		return fmt.Errorf("packet: remove [%d,%d) outside wire length %d", off, off+n, p.wire)
	}
	if p.head > 0 && off < p.wire-off-n {
		copy(p.buf[n:], p.buf[:off])
		p.moveHead(int(p.head) + n)
	} else {
		copy(p.buf[off:], p.buf[off+n:p.wire])
	}
	p.wire -= n
	p.Invalidate()
	return nil
}

// InsertAH splices hdr, an AH header, in after the IPv4 header and its
// options (spliceAH).
func (p *Packet) InsertAH(hdr []byte) error { return p.spliceAH(hdr) }

// RemoveAH splices the packet's AH header out, the inverse of InsertAH.
func (p *Packet) RemoveAH() error { return p.spliceAH(nil) }

// spliceAH inserts hdr after the IPv4 header, or removes the AH header
// when hdr is nil, and carries the IPv4 header along: its protocol field
// and the AH's next-header byte trade places, the total length follows
// the wire, and the checksum follows both words by RFC 1624 deltas
// rather than a re-sum. The parsed offsets shift arithmetically and the
// flow key, which names the protocol above the AH, stays: nothing is
// parsed again. A packet that does not parse, has no room, or already
// has (has no) AH header is refused unchanged.
func (p *Packet) spliceAH(hdr []byte) error {
	if err := p.Parse(); err != nil {
		return err
	}
	l, d := p.layout, AHHeaderLen
	var next, proto uint8
	var err error
	switch {
	case hdr == nil && l.AHOff >= 0:
		next = p.buf[l.AHOff]
		proto, d = next, -d
		err = p.RemoveAt(l.AHOff, AHHeaderLen)
		l.AHOff = -1
	case hdr != nil && l.AHOff < 0 && len(hdr) == AHHeaderLen:
		next, proto = p.buf[l.L3Off+9], ProtoAH
		l.AHOff = l.L3Off + int(p.buf[l.L3Off]&0x0f)*4
		if err = p.InsertAt(l.AHOff, hdr); err == nil {
			p.buf[l.AHOff] = next
		}
	default:
		return fmt.Errorf("packet: AH splice of %d bytes refused (AH at %d)", len(hdr), l.AHOff)
	}
	if err != nil {
		return err
	}
	h := p.buf[l.L3Off:]
	oldLen, oldProto := binary.BigEndian.Uint16(h[2:4]), binary.BigEndian.Uint16(h[8:10])
	binary.BigEndian.PutUint16(h[2:4], uint16(p.wire-l.L3Off))
	h[9] = proto
	updateIPChecksum(h, wordDelta(oldLen, binary.BigEndian.Uint16(h[2:4]))+
		wordDelta(oldProto, binary.BigEndian.Uint16(h[8:10])))
	// Bytes written behind the parse, or a second AH behind the removed
	// one: the splice left the caches cold, and the next accessor parses.
	if next != l.L4Proto || next == ProtoAH {
		return nil
	}
	if l.L4Off >= 0 {
		l.L4Off += d
	}
	l.AppOff += d
	p.layout, p.fkeyOK = l, true
	return nil
}
