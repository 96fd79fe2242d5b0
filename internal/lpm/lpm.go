// Package lpm implements a longest-prefix-match routing table over IPv4,
// the substrate behind the evaluation's L3 Forwarder NF ("obtains the
// matching entry from a longest prefix matching table with 1000 entries
// to find out the next hop", §6.1).
//
// The implementation is a plain, uncompressed binary trie: one node per
// prefix bit, so a lookup walks at most 33 nodes. Inserts are rare
// (control plane); lookups are the fast path. There is no delete: the
// forwarder builds its table once.
package lpm

import (
	"fmt"
	"net/netip"
)

// Table is an IPv4 longest-prefix-match table mapping prefixes to
// integer next hops. The zero value is not usable; call New.
type Table struct {
	root *node
	size int
}

type node struct {
	children [2]*node
	hasValue bool
	value    int
}

// New creates an empty table.
func New() *Table { return &Table{root: &node{}} }

// Len returns the number of installed prefixes.
func (t *Table) Len() int { return t.size }

// Insert installs prefix -> nextHop, replacing any previous value for
// exactly that prefix.
func (t *Table) Insert(prefix netip.Prefix, nextHop int) error {
	if !prefix.Addr().Is4() {
		return fmt.Errorf("lpm: only IPv4 prefixes supported, got %v", prefix)
	}
	bits := prefix.Bits()
	if bits < 0 || bits > 32 {
		return fmt.Errorf("lpm: invalid prefix length %d", bits)
	}
	addr := ipv4ToUint(prefix.Addr())
	n := t.root
	for i := 0; i < bits; i++ {
		b := addr >> (31 - i) & 1
		if n.children[b] == nil {
			n.children[b] = &node{}
		}
		n = n.children[b]
	}
	if !n.hasValue {
		t.size++
	}
	n.hasValue = true
	n.value = nextHop
	return nil
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
	n := t.root
	best, found := 0, false
	for i := 0; n != nil; i++ {
		if n.hasValue {
			best, found = n.value, true
		}
		if i == 32 {
			break
		}
		n = n.children[addr>>(31-i)&1]
	}
	return best, found
}

func ipv4ToUint(a netip.Addr) uint32 {
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}
