//go:build linux && !race

package offheap

import (
	"syscall"
	"unsafe"
)

// enabled: slabs are anonymous mappings. Race builds keep their memory
// on the heap (map_other.go): the race detector watches only the Go
// heap and data segments, so races on frame bytes between no-copy
// branches, or on a flow table, would go unseen over a mapping.
const enabled = true

// mapAnon maps anonymous private memory, zero-filled on first touch and
// page-aligned. A huge slab's mapping is one huge page longer than the
// whole huge pages it needs, so that they can start on a boundary
// wherever the kernel places it: the slack before and after is never
// touched, so it costs address space and no memory.
func mapAnon(size int, huge bool) (full, mem []byte, err error) {
	const prot, flags = syscall.PROT_READ | syscall.PROT_WRITE, syscall.MAP_ANON | syscall.MAP_PRIVATE
	if !huge {
		full, err = syscall.Mmap(-1, 0, size, prot, flags)
		return full, full, err
	}
	n := (size + HugePage - 1) &^ (HugePage - 1)
	if full, err = syscall.Mmap(-1, 0, n+HugePage, prot, flags); err != nil {
		return nil, nil, err
	}
	off := -int(uintptr(unsafe.Pointer(&full[0]))) & (HugePage - 1)
	_ = syscall.Madvise(full[off:off+n], syscall.MADV_HUGEPAGE) // advice: declined, the pages are 4 KB
	return full, full[off : off+size : off+size], nil
}

// unmap releases a mapping mapAnon made. Free or the finalizer calls
// it, once, on a range nothing may touch any more, so munmap has no
// failure to report.
func unmap(full []byte) { _ = syscall.Munmap(full) }
