// Package offheap hands out memory outside the Go heap: one anonymous
// private mapping per Slab, which the kernel zero-fills a page at a
// time on first touch, so taking a slab writes none of it. The packet
// pool's frames (DESIGN.md §16, "The frame slab") and the per-flow
// tables' large slabs (§15, "Growth") live in such mappings: DPDK
// reserves both kinds of memory in hugepages, outside any collector.
//
// The collector does not scan a mapping, so only memory that holds no
// Go pointers may live in one: a pointer stored there keeps nothing
// alive. The race detector does not watch one either, so race builds
// never map, nor does any build off Linux: Map returns nil, and the
// caller takes heap memory, as it does when the kernel refuses a
// mapping.
package offheap

import "runtime"

// HugePage is the size of a transparent huge page on the platforms
// that map. A huge slab starts on a HugePage boundary and its mapping
// spans whole huge pages.
const HugePage = 2 << 20

// Slab is the handle on one mapping. Its memory is valid until Free,
// and while the handle is reachable: a finalizer unmaps what was never
// freed. So hold the handle, not only a slice of its bytes.
type Slab struct {
	mem  []byte // the size bytes asked for
	full []byte // the whole mapping: mem, its alignment and its rounding
}

// Map returns a slab of size zeroed bytes, or nil where the build does
// not map or the mapping failed. With huge set the bytes start on a
// HugePage boundary, the mapping is rounded up to whole huge pages, and
// the kernel is advised (MADV_HUGEPAGE) to back it with them: one fault
// per 2 MB instead of 512. A kernel that declines the advice maps 4-KB
// pages, and nothing else changes.
func Map(size int, huge bool) *Slab {
	if !enabled {
		return nil
	}
	full, mem, err := mapAnon(size, huge)
	if err != nil {
		return nil
	}
	s := &Slab{mem: mem, full: full}
	runtime.SetFinalizer(s, func(s *Slab) { unmap(s.full) })
	return s
}

// Bytes returns the slab's memory; nil once it is freed.
func (s *Slab) Bytes() []byte { return s.mem }

// Free unmaps the slab now, rather than at a collection after its
// handle is dropped. Nothing may touch its bytes afterwards.
func (s *Slab) Free() {
	runtime.SetFinalizer(s, nil)
	unmap(s.full)
	s.mem, s.full = nil, nil
}
