//go:build linux && !race

package mempool

import "syscall"

// mapSlab: the frame slab is an anonymous mapping. Race builds keep it
// on the heap (slab_heap.go): the race detector watches only the Go
// heap and data segments, so races on frame bytes between no-copy
// branches would go unseen over a mapping.
const mapSlab = true

// mapAnon maps size bytes of anonymous private memory, zero-filled on
// first touch and page-aligned.
func mapAnon(size int) ([]byte, error) {
	return syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

// unmapAnon releases a slab mapAnon made. Only the slab's finalizer
// calls it, on a range nothing reachable points into, so munmap has no
// failure to report.
func unmapAnon(mem []byte) { _ = syscall.Munmap(mem) }
