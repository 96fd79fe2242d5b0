//go:build linux && !race

package offheap

import (
	"testing"
	"unsafe"
)

// TestHugeSlabIsAligned: a huge slab starts on a huge-page boundary
// whatever its size, so every whole huge page of it can be one. That
// Free and the finalizer unmap is held by the users' statm tests:
// mempool's TestDroppedPoolsUnmapTheirSlabs and flowtab's
// TestDroppedTablesUnmapTheirSlabs.
func TestHugeSlabIsAligned(t *testing.T) {
	for _, size := range []int{HugePage, HugePage + 4096, 3 * HugePage, 5*HugePage - 1} {
		s := Map(size, true)
		if a := uintptr(unsafe.Pointer(&s.Bytes()[0])); a%HugePage != 0 {
			t.Errorf("%d-byte huge slab at %#x, not on a %d-byte boundary", size, a, HugePage)
		}
		s.Free()
	}
}
