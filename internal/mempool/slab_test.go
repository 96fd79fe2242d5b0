package mempool

import (
	"errors"
	"runtime"
	"testing"

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
	s := newSlab(size, func(int) ([]byte, error) { return nil, errors.New("mmap: out of address space") })
	if s.mapped || len(s.mem) != size {
		t.Fatalf("failed mapping gave mapped=%v len=%d, want a %d-byte heap slab", s.mapped, len(s.mem), size)
	}
	for i, b := range s.mem {
		if b != 0 {
			t.Fatalf("heap slab byte %d = %#x, want 0", i, b)
		}
	}
}
