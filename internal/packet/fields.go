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

// Fields returns all concrete fields (excluding FieldNone), useful for
// table-driven tests and the action model.
func Fields() []Field {
	out := make([]Field, 0, numFields-1)
	for f := FieldSrcIP; f < numFields; f++ {
		out = append(out, f)
	}
	return out
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

// InsertAt splices data into the packet at offset off, shifting the
// suffix right. The buffer must have room. The layout is invalidated.
func (p *Packet) InsertAt(off int, data []byte) error {
	if off < 0 || off > p.wire {
		return fmt.Errorf("packet: insert offset %d outside wire length %d", off, p.wire)
	}
	if p.wire+len(data) > len(p.buf) {
		return fmt.Errorf("packet: insert of %d bytes overflows %d-byte buffer (wire %d)",
			len(data), len(p.buf), p.wire)
	}
	copy(p.buf[off+len(data):], p.buf[off:p.wire])
	copy(p.buf[off:], data)
	p.wire += len(data)
	p.Invalidate()
	return nil
}

// RemoveAt splices n bytes out of the packet at offset off, shifting the
// suffix left. The layout is invalidated.
func (p *Packet) RemoveAt(off, n int) error {
	if off < 0 || n < 0 || off+n > p.wire {
		return fmt.Errorf("packet: remove [%d,%d) outside wire length %d", off, off+n, p.wire)
	}
	copy(p.buf[off:], p.buf[off+n:p.wire])
	p.wire -= n
	p.Invalidate()
	return nil
}
