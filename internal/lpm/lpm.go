// Package lpm implements a longest-prefix-match routing table over IPv4,
// the substrate behind the evaluation's L3 Forwarder NF ("obtains the
// matching entry from a longest prefix matching table with 1000 entries
// to find out the next hop", §6.1).
//
// The table is a flat, pointer-free DIR-16-8-8 array in the manner of
// DPDK's DIR-24-8 (Gupta, Lin & McKeown, INFOCOM '98): one []uint32
// holding a 2^16-entry root indexed by the top 16 address bits, then
// 256-entry groups indexed by bits 16–23 and 24–31. Routes are
// leaf-pushed, so every entry already holds the answer for its address
// range and a lookup reads one entry per level it descends: one for a
// match of /16 or shorter, two up to /24, three up to /32. Inserts are
// rare (control plane); lookups are the fast path. There is no delete:
// the forwarder builds its table once.
package lpm

import (
	"fmt"
	"net/netip"
	"slices"
)

// An entry is 0 (no route), a group reference (extFlag | the group's
// offset in slab), or a leaf: the length of the prefix that set it plus
// one in bits 24–29 and its next hop in bits 0–23. Comparing two leaves'
// entry>>lenShift therefore compares their prefix lengths, and an empty
// entry loses to every leaf.
const (
	rootBits  = 16
	groupSize = 256
	extFlag   = 1 << 31
	lenShift  = 24
	nhMask    = 1<<lenShift - 1
)

// Table is an IPv4 longest-prefix-match table mapping prefixes to
// integer next hops. The zero value is not usable; call New. A Table
// is safe for concurrent lookups once no Insert runs beside them.
type Table struct {
	slab     []uint32
	prefixes map[uint64]struct{} // addr<<6 | bits of each installed prefix
}

// New creates an empty table: the root, with room for 512 groups (the
// evaluation's 1000 /8–/24 routes take 482) before the slab regrows.
func New() *Table {
	return &Table{
		slab:     make([]uint32, 1<<rootBits, 1<<rootBits+512*groupSize),
		prefixes: map[uint64]struct{}{},
	}
}

// Len returns the number of installed prefixes.
func (t *Table) Len() int { return len(t.prefixes) }

// Insert installs prefix -> nextHop, replacing any previous value for
// exactly that prefix. nextHop must fit the entry: 0 <= nextHop < 2^24.
func (t *Table) Insert(prefix netip.Prefix, nextHop int) error {
	if !prefix.Addr().Is4() {
		return fmt.Errorf("lpm: only IPv4 prefixes supported, got %v", prefix)
	}
	bits := prefix.Bits()
	if bits < 0 || bits > 32 {
		return fmt.Errorf("lpm: invalid prefix length %d", bits)
	}
	if nextHop < 0 || nextHop > nhMask {
		return fmt.Errorf("lpm: next hop %d of %v does not fit 24 bits", nextHop, prefix)
	}
	addr := ipv4ToUint(prefix.Addr()) & (^uint32(0) << (32 - bits))
	t.prefixes[uint64(addr)<<6|uint64(bits)] = struct{}{}

	// Descend to the prefix's level, then fill the range it covers there.
	var i, span uint32
	switch {
	case bits <= 16:
		i, span = addr>>rootBits, 1<<(16-bits)
	case bits <= 24:
		i, span = t.extend(addr>>rootBits)+addr>>8&0xff, 1<<(24-bits)
	default:
		i, span = t.extend(t.extend(addr>>rootBits)+addr>>8&0xff)+addr&0xff, 1<<(32-bits)
	}
	t.fill(i, i+span, uint32(bits+1)<<lenShift|uint32(nextHop))
	return nil
}

// extend returns the offset of the group below entry i, creating it
// from the entry's leaf (every address it covers inherits the route)
// if there is none yet.
func (t *Table) extend(i uint32) uint32 {
	e := t.slab[i]
	if e&extFlag != 0 {
		return e &^ extFlag
	}
	base := uint32(len(t.slab))
	t.slab = slices.Grow(t.slab, groupSize)[:base+groupSize]
	for j := base; j < base+groupSize; j++ {
		t.slab[j] = e
	}
	t.slab[i] = extFlag | base
	return base
}

// fill writes leaf into slab[lo:hi], descending into groups, except
// where a longer prefix already set the entry.
func (t *Table) fill(lo, hi, leaf uint32) {
	for i := lo; i < hi; i++ {
		switch e := t.slab[i]; {
		case e&extFlag != 0:
			base := e &^ extFlag
			t.fill(base, base+groupSize, leaf)
		case e>>lenShift <= leaf>>lenShift:
			t.slab[i] = leaf
		}
	}
}

// Lookup returns the next hop of the longest matching prefix for addr.
func (t *Table) Lookup(addr netip.Addr) (nextHop int, ok bool) {
	if !addr.Is4() {
		return 0, false
	}
	return t.LookupUint(ipv4ToUint(addr))
}

// LookupUint is the allocation-free fast path taking a host-order IPv4
// address. The L3 forwarder NF uses it per packet.
func (t *Table) LookupUint(addr uint32) (nextHop int, ok bool) {
	e := t.slab[addr>>rootBits]
	if e&extFlag != 0 {
		e = t.slab[e&^extFlag+addr>>8&0xff]
		if e&extFlag != 0 {
			e = t.slab[e&^extFlag+addr&0xff]
		}
	}
	return int(e & nhMask), e != 0
}

func ipv4ToUint(a netip.Addr) uint32 {
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}
