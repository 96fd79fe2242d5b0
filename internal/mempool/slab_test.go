package mempool

import (
	"runtime"
	"runtime/debug"
	"testing"

	"nfp/internal/offheap"
	"nfp/internal/packet"
)

// TestPartitionsKeepTheSlab drops a partitioned pool's facade and
// collects it: the children alone must keep the slab alive, so writing
// every byte of every child's buffers faults nowhere.
func TestPartitionsKeepTheSlab(t *testing.T) {
	parts := New(256, 2048).Partition(4)
	runtime.GC()
	runtime.GC()
	for _, c := range parts {
		var pkts []*packet.Packet
		for pkt := c.Get(); pkt != nil; pkt = c.Get() {
			pkts = append(pkts, pkt)
		}
		if len(pkts) != c.Cap() {
			t.Fatalf("child handed out %d of %d buffers", len(pkts), c.Cap())
		}
		for _, pkt := range pkts {
			buf := pkt.Buffer()
			for i := range buf {
				buf[i] = 0xa5
			}
		}
		c.FreeBatch(pkts)
		if c.InUse() != 0 {
			t.Fatalf("child holds %d buffers after freeing all", c.InUse())
		}
	}
}

// TestSlabFallsBackToHeap: a slab whose mapping fails is a heap slice
// of the asked size, zeroed.
func TestSlabFallsBackToHeap(t *testing.T) {
	const size = 4 * 2048
	mem, m := newFrames(size, func(int, bool) *offheap.Slab { return nil })
	if m != nil || len(mem) != size {
		t.Fatalf("failed mapping gave handle %v, len %d, want a %d-byte heap slab", m, len(mem), size)
	}
	for i, b := range mem {
		if b != 0 {
			t.Fatalf("heap slab byte %d = %#x, want 0", i, b)
		}
	}
}

// TestNewAllocationsIndependentOfSize: the descriptors are one array,
// so a pool of 4096 buffers costs New as many heap allocations as a
// pool of 64. It counts with the collector off: a collection inside a
// count adds objects of its own, and a race build's 8-MB heap slab
// brings one on.
func TestNewAllocationsIndependentOfSize(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	small := testing.AllocsPerRun(10, func() { New(64, 2048) })
	large := testing.AllocsPerRun(10, func() { New(4096, 2048) })
	if small != large {
		t.Fatalf("New allocates %.0f objects for 64 buffers and %.0f for 4096, want the same", small, large)
	}
}

// TestPacketKeepsItsPool holds one packet of a pool and drops the rest:
// the descriptor, an interior pointer into the pool's descriptor array,
// must keep the array, its pool and the slab alive, so the packet's
// frame can still be written and the packet freed back to its pool.
func TestPacketKeepsItsPool(t *testing.T) {
	pkt := New(256, 2048).Get()
	runtime.GC()
	runtime.GC()
	buf := pkt.Buffer()
	for i := range buf {
		buf[i] = 0xa5
	}
	p := pkt.Owner().(*Pool)
	pkt.Free()
	if p.InUse() != 0 || p.Available() != 256 {
		t.Fatalf("after the free: in use %d, available %d, want 0 and 256", p.InUse(), p.Available())
	}
}
