package mempool

import "runtime"

// slab is the frame memory of one pool and of every partition of it:
// n slots of bufSize bytes, carved into the packets' buffers by New.
// Every Pool over the slab holds its handle, and every packet holds its
// owning Pool, so the slab lives while some pool or packet of it is
// reachable. The finalizer sits here, not on a Pool, because pool →
// free list → packet → owner → pool is a cycle; a frame's bytes are
// valid only while its packet or one of those pools is reachable.
type slab struct {
	mem []byte
	// mapped: mem is an anonymous private mapping, unmapped by the
	// finalizer; otherwise it is Go heap.
	mapped bool
}

// newSlab returns size bytes of zeroed frame memory. Where mapSlab
// holds it asks mapAnon for an anonymous private mapping, which the
// kernel zero-fills page by page on first touch, so neither this call
// nor New writes a byte of it and a server pays only for the slots its
// traffic touches (DPDK reserves its mbuf pool once, in hugepages).
// Elsewhere, and when the mapping fails, the slab is one heap slice.
func newSlab(size int, mapAnon func(int) ([]byte, error)) *slab {
	if mapSlab {
		if mem, err := mapAnon(size); err == nil {
			s := &slab{mem: mem, mapped: true}
			runtime.SetFinalizer(s, func(s *slab) { unmapAnon(s.mem) })
			return s
		}
	}
	return &slab{mem: make([]byte, size)}
}
