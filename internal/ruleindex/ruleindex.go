// Package ruleindex compiles a first-match-wins 5-tuple rule list into
// an immutable tuple-space-search index, the slow path shared by the
// classifier's Classification Table (§5.1) and the firewall's ACL (§6.1).
//
// Every rule field is reduced to ONE (value, mask) form: address
// prefixes mask the top bits, the protocol is all-or-nothing, and an
// inclusive port range is expanded into the port prefixes that tile it,
// so a rule becomes one or more fully masked keys. Keys that share a
// mask tuple live in one hash table from masked key to the lowest rule
// position holding it. Lookup masks the packet's key once per tuple and
// probes that table, so a packet costs O(distinct mask tuples), not
// O(rules). Tuples are kept in order of the lowest position they hold:
// once a match at position p is in hand, no tuple whose lowest position
// is >= p can beat it and the search stops.
package ruleindex

import (
	"encoding/binary"
	"math/bits"
	"net/netip"

	"nfp/internal/packet"
)

// Prefix is an IPv4 prefix as (address, length). Address bits below the
// length are ignored. The zero value is 0.0.0.0/0: any address.
type Prefix struct {
	Addr uint32 // big-endian address as a host integer
	Bits uint8  // 0..32
}

// FromNetip converts p. ok is false when p cannot cover any IPv4
// address: the zero (invalid) prefix and every IPv6 prefix, IPv4-mapped
// ones included — netip.Prefix.Contains treats those the same way.
func FromNetip(p netip.Prefix) (pfx Prefix, ok bool) {
	if !p.IsValid() || !p.Addr().Is4() {
		return Prefix{}, false
	}
	a := p.Addr().As4()
	return Prefix{Addr: binary.BigEndian.Uint32(a[:]), Bits: uint8(p.Bits())}, true
}

// Ports is an inclusive port range; Lo > Hi covers nothing.
type Ports struct{ Lo, Hi uint16 }

// AnyPort covers every port.
var AnyPort = Ports{0, 0xffff}

// Port covers exactly p.
func Port(p uint16) Ports { return Ports{p, p} }

// Rule is one 5-tuple filter in the index's input form.
type Rule struct {
	Src, Dst           Prefix
	SrcPorts, DstPorts Ports
	Proto              uint8 // 0 = any
}

// A flow key and a mask tuple share one packed layout:
//
//	hi = src<<32 | dst
//	lo = sport<<24 | dport<<8 | proto
type packed struct{ hi, lo uint64 }

func pack(src, dst uint32, sport, dport uint16, proto uint8) packed {
	return packed{
		hi: uint64(src)<<32 | uint64(dst),
		lo: uint64(sport)<<24 | uint64(dport)<<8 | uint64(proto),
	}
}

// none is the position of "no rule": above every real position, so a
// plain < keeps the first match.
const none = ^uint32(0)

// slot is one open-addressing cell. pos1 is the rule position plus one,
// so the zero slot is empty (and reads back as none).
type slot struct {
	key  packed
	pos1 uint32
}

// tuple is the hash table of every masked key sharing one mask.
type tuple struct {
	mask   packed
	minPos uint32 // lowest rule position in the table
	shift  uint8  // 64 - log2(len(slots)): hash bits -> slot index
	slots  []slot // power-of-two length, at most half full
}

// Index is an immutable compiled rule list. The zero value matches
// nothing. It is safe for concurrent Lookups.
type Index struct {
	tuples []tuple // ascending minPos
}

// Tuples reports the number of distinct mask tuples — the number of
// hash probes a lookup that matches nothing pays.
func (ix *Index) Tuples() int { return len(ix.tuples) }

func hash(k packed) uint64 {
	return (k.hi ^ k.lo*0xff51afd7ed558ccd) * 0x9e3779b97f4a7c15
}

// find returns the position stored under the masked key, or none.
func (t *tuple) find(k packed) uint32 {
	last := uint64(len(t.slots) - 1)
	for i := hash(k) >> t.shift; ; i = (i + 1) & last {
		s := &t.slots[i]
		if s.pos1 == 0 || s.key == k {
			return s.pos1 - 1
		}
	}
}

// Lookup returns the position of the first rule covering k, or -1.
func (ix *Index) Lookup(k packet.FlowKey) int {
	key := pack(binary.BigEndian.Uint32(k.Src[:]), binary.BigEndian.Uint32(k.Dst[:]),
		k.SrcPort, k.DstPort, k.Proto)
	best := none
	for i := range ix.tuples {
		t := &ix.tuples[i]
		if t.minPos >= best {
			break // nothing from here on can beat the match in hand
		}
		if pos := t.find(packed{key.hi & t.mask.hi, key.lo & t.mask.lo}); pos < best {
			best = pos
		}
	}
	return int(int32(best)) // none -> -1
}

// portPrefix is one aligned power-of-two block of ports.
type portPrefix struct{ value, mask uint16 }

// expand appends the port prefixes that exactly tile r, lowest first:
// at most 30 for any 16-bit range, one for an exact port or AnyPort,
// none for an empty range.
func (r Ports) expand(out []portPrefix) []portPrefix {
	lo, hi := uint32(r.Lo), uint32(r.Hi)
	for lo <= hi {
		// The largest block that starts at lo is bounded by lo's
		// alignment and by what is left of the range.
		size := uint32(1) << 16
		if lo != 0 {
			size = lo & -lo
		}
		for size > hi-lo+1 {
			size >>= 1
		}
		out = append(out, portPrefix{uint16(lo), ^uint16(size - 1)})
		lo += size
	}
	return out
}

func mask32(n uint8) uint32 {
	if n >= 32 {
		return 0xffffffff
	}
	return ^(uint32(0xffffffff) >> n)
}

// Build compiles rules 0..n-1, read through at, into an Index. A rule
// for which at reports !ok covers nothing but still holds its position.
// Cost is linear in the number of masked keys: one per rule, times the
// port prefixes each of its two ranges expands to.
func Build(n int, at func(i int) (Rule, bool)) *Index {
	type group struct {
		mask    packed
		entries []slot
	}
	// Rules are visited in position order, so groups are created — and
	// each group's entries appended — in ascending position: the group
	// list is already in lookup order, and the first entry inserted
	// under a key is the one first-match-wins keeps.
	var groups []group
	byMask := make(map[packed]int)
	var sbuf, dbuf [32]portPrefix
	for i := 0; i < n; i++ {
		r, ok := at(i)
		if !ok {
			continue
		}
		srcMask, dstMask := mask32(r.Src.Bits), mask32(r.Dst.Bits)
		var protoMask uint8
		if r.Proto != 0 {
			protoMask = 0xff
		}
		dports := r.DstPorts.expand(dbuf[:0])
		for _, sp := range r.SrcPorts.expand(sbuf[:0]) {
			for _, dp := range dports {
				mask := pack(srcMask, dstMask, sp.mask, dp.mask, protoMask)
				gi, seen := byMask[mask]
				if !seen {
					gi = len(groups)
					byMask[mask] = gi
					groups = append(groups, group{mask: mask})
				}
				groups[gi].entries = append(groups[gi].entries, slot{
					key:  pack(r.Src.Addr&srcMask, r.Dst.Addr&dstMask, sp.value, dp.value, r.Proto),
					pos1: uint32(i) + 1,
				})
			}
		}
	}

	ix := &Index{tuples: make([]tuple, len(groups))}
	for gi, g := range groups {
		log2 := bits.Len(uint(2*len(g.entries) - 1)) // >= 1: at most half full
		t := &ix.tuples[gi]
		*t = tuple{
			mask:   g.mask,
			minPos: g.entries[0].pos1 - 1,
			shift:  uint8(64 - log2),
			slots:  make([]slot, 1<<log2),
		}
		last := uint64(len(t.slots) - 1)
	insert:
		for _, e := range g.entries {
			i := hash(e.key) >> t.shift
			for t.slots[i].pos1 != 0 {
				if t.slots[i].key == e.key {
					continue insert // a lower position already owns the key
				}
				i = (i + 1) & last
			}
			t.slots[i] = e
		}
	}
	return ix
}
