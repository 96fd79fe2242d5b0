// Package packet implements the NFP packet representation: a reusable
// buffer holding raw Ethernet/IPv4/TCP|UDP bytes plus the 64-bit NFP
// metadata word (MID, PID, version) described in §5.1 of the paper.
//
// Packets are passed between NFP components by reference ("zero-copy
// delivery"); the bytes live in buffers owned by a mempool.Pool and are
// only duplicated when the orchestrator decides a parallel branch needs
// its own copy. Header-Only Copying (§4.2, OP#2) is implemented by
// HeaderOnlyCopy.
package packet

import (
	"fmt"
	"unsafe"
)

// Metadata layout (Figure 5): a packet carries a 20-bit Match ID
// identifying its service graph, a 40-bit Packet ID unique within the
// flow, and a 4-bit version distinguishing parallel copies.
const (
	MIDBits     = 20
	PIDBits     = 40
	VersionBits = 4

	// MaxMID is the largest representable Match ID ("Twenty bits of MID
	// could express 1M service graphs").
	MaxMID = 1<<MIDBits - 1
	// MaxPID is the largest representable Packet ID.
	MaxPID = 1<<PIDBits - 1
	// MaxVersion is the largest representable packet-copy version.
	MaxVersion = 1<<VersionBits - 1
)

// Meta is the NFP metadata attached to every packet by the classifier.
type Meta struct {
	MID     uint32 // service graph identifier (20 bits used)
	PID     uint64 // per-packet identifier (40 bits used)
	Version uint8  // packet copy version (4 bits used); original is 1
}

// Word packs the metadata into the single 64-bit word of Figure 5:
// [MID:20 | PID:40 | Version:4].
func (m Meta) Word() uint64 {
	return uint64(m.MID&MaxMID)<<(PIDBits+VersionBits) |
		(m.PID&MaxPID)<<VersionBits |
		uint64(m.Version&MaxVersion)
}

// MetaFromWord unpacks a 64-bit metadata word.
func MetaFromWord(w uint64) Meta {
	return Meta{
		MID:     uint32(w >> (PIDBits + VersionBits) & MaxMID),
		PID:     w >> VersionBits & MaxPID,
		Version: uint8(w & MaxVersion),
	}
}

func (m Meta) String() string {
	return fmt.Sprintf("mid=%d pid=%d v%d", m.MID, m.PID, m.Version)
}

// Packet is a single packet reference. The byte slice points into a
// pool-owned buffer; Len is the wire length currently valid.
//
// A pool frame starts some headroom into its slot, which an insertion
// near the front moves the frame's head into (InsertAt).
//
// Nil packets (§5.3) carry a drop intention from an NF runtime to the
// merger: they have metadata but no bytes.
type Packet struct {
	Meta Meta

	// Ingress is an instrumentation timestamp (nanoseconds) stamped by
	// the traffic generator; it is not part of the wire format and is
	// preserved across copies so end-to-end latency can be measured at
	// the merger output.
	Ingress int64

	// owner is the pool the packet returns to on Free; set by the pool.
	// Nil for packets created outside a pool (tests, builders). It sits
	// with the fields whoever frees a packet has just read.
	owner Owner

	buf  []byte
	wire int // valid wire length

	layout Layout // parsed header offsets; zero until Parse

	// fkey caches the packed 5-tuple, valid only while fkeyOK is set
	// (see FlowKey). Tuple setters patch it in place; Invalidate and
	// Attach clear it with the layout.
	fkey   FlowKey
	fkeyOK bool

	// Nil marks a nil packet conveying a drop intention.
	Nil bool

	// Frame is the dataplane's join frame index of the packet (and of
	// its copies), stamped at injection into a graph with joins.
	Frame uint16

	head uint32 // buf's offset in its slot: padding, so 152 B (TestPacketSize)
}

// Owner is what a pooled packet goes back to (a mempool.Pool).
type Owner interface {
	// Put takes back a packet the owner handed out.
	Put(*Packet)
}

// New wraps buf as a standalone packet (no pool). The packet's wire
// length is len(buf).
func New(buf []byte) *Packet {
	p := &Packet{buf: buf, wire: len(buf)}
	return p
}

// NewNil creates a nil packet carrying meta, used by NF runtimes to tell
// the merger that the packet was dropped.
func NewNil(meta Meta) *Packet {
	return &Packet{Meta: meta, Nil: true}
}

// Attach configures the packet to use buf, no headroom, as backing
// storage with the given wire length and owner (nil for none). Used by
// mempool.
func (p *Packet) Attach(buf []byte, wire int, owner Owner) {
	p.buf, p.head = buf, 0
	p.wire = wire
	p.owner = owner
	p.layout = Layout{}
	p.fkeyOK = false
	p.Nil = false
}

// Reset readies a pooled packet for its next use, its buffer room bytes
// from the frame's first byte to its slot's end (the rest is headroom):
// the pool calls it on every allocation. It tests the buffer's length:
// testing the slot offset instead cost fwd64 8–15 % of its throughput
// (DESIGN.md §16, "Rejected in prototyping").
func (p *Packet) Reset(room int) {
	if len(p.buf) != room {
		p.moveHead(int(p.head) + len(p.buf) - room)
	}
	p.wire = 0
	p.Meta = Meta{}
	p.Ingress = 0
	p.Nil = false
	p.layout = Layout{}
	p.fkeyOK = false
}

// moveHead re-slices buf to start head bytes into its slot, recovered
// from buf's base pointer (checkptr checks it stays in the allocation).
func (p *Packet) moveHead(head int) {
	base := unsafe.Add(unsafe.Pointer(unsafe.SliceData(p.buf)), -int(p.head))
	slot := unsafe.Slice((*byte)(base), int(p.head)+len(p.buf))
	p.buf, p.head = slot[head:], uint32(head)
}

// WarmHeaders loads one byte of every packet's IPv4 header, in one
// pass before the caller's per-packet loop, and returns their OR so the
// loads are not removed; the caller may discard it. A frame built on
// another core misses on its first touch. Inside a long per-packet loop
// those misses come one after another; issued back to back they overlap
// (DPDK's rte_prefetch0 over a burst).
//
// The byte is the first of the IPv4 header checksum. Pool buffers are
// 2048-byte slots of one slab with frames a 64-byte headroom in, so the
// Ethernet, IPv4 and TCP headers (54 B) share one cache line and the
// one load fetches them all. Every tuple rewriter writes the checksum,
// so the read stays inside its own action row and no-copy parallel
// groups stay race-free.
// Nil packets and frames shorter than Ethernet + IPv4 are skipped. It
// never parses: a parse writes the layout cache.
//
// A batch NF that writes frame bytes calls it first (DESIGN.md §16,
// "Cross-core first touch").
//
//go:noinline
func WarmHeaders(pkts []*Packet) byte {
	var acc byte
	for _, p := range pkts {
		if p == nil || p.wire < EthHeaderLen+IPv4HeaderLen {
			continue
		}
		acc |= p.buf[EthHeaderLen+10]
	}
	return acc
}

// Bytes returns the valid wire bytes of the packet.
func (p *Packet) Bytes() []byte { return p.buf[:p.wire] }

// Buffer returns the backing buffer from the frame's first byte to the
// end of its slot (capacity may exceed Len).
func (p *Packet) Buffer() []byte { return p.buf }

// Len returns the current wire length.
func (p *Packet) Len() int { return p.wire }

// SetLen changes the wire length; it must not exceed the buffer size.
func (p *Packet) SetLen(n int) {
	if n < 0 || n > len(p.buf) {
		panic(fmt.Sprintf("packet: SetLen(%d) outside buffer of %d bytes", n, len(p.buf)))
	}
	p.wire = n
}

// Free returns the packet to its pool, if it has one. Freeing a packet
// twice is a bug in the caller; the pool guards against it.
func (p *Packet) Free() {
	if p.owner != nil {
		p.owner.Put(p)
	}
}

// Owner returns the pool the packet goes back to, nil when it has none:
// what tells a holder of mixed packets which of them one pool's
// FreeBatch may take.
func (p *Packet) Owner() Owner { return p.owner }

// CloneInto copies the full wire contents and metadata of p into dst,
// which must have a buffer at least p.Len() bytes long.
func (p *Packet) CloneInto(dst *Packet) { p.copyInto(dst, p.wire) }

// copyInto is the one copy body: the first n wire bytes of p and its
// metadata go into dst. The copy's bytes are p's bytes — identical
// header bytes have identical offsets — so p's parsed layout and flow
// key (when warm) are the copy's too, provided n covers the header
// chain: nothing is re-parsed, and a copy of a warm packet is born warm.
func (p *Packet) copyInto(dst *Packet, n int) {
	if len(dst.buf) < n {
		panic(fmt.Sprintf("packet: copy needs %d bytes, dst has %d", n, len(dst.buf)))
	}
	copy(dst.buf, p.buf[:n])
	dst.wire = n
	dst.Meta = p.Meta
	dst.Ingress = p.Ingress
	dst.Nil = p.Nil
	dst.Frame = p.Frame
	dst.layout, dst.fkey, dst.fkeyOK = p.layout, p.fkey, p.fkeyOK
}

// String implements fmt.Stringer for debugging.
func (p *Packet) String() string {
	if p.Nil {
		return fmt.Sprintf("Packet{nil, %s}", p.Meta)
	}
	return fmt.Sprintf("Packet{%dB, %s}", p.wire, p.Meta)
}
