package mempool

import (
	"sync"
	"testing"

	"nfp/internal/packet"
)

func TestGetFreeCycle(t *testing.T) {
	p := New(4, 256)
	if p.Available() != 4 {
		t.Fatalf("available = %d", p.Available())
	}
	pkts := make([]*packet.Packet, 0, 4)
	for i := 0; i < 4; i++ {
		pkt := p.Get()
		if pkt == nil {
			t.Fatalf("Get %d returned nil", i)
		}
		pkts = append(pkts, pkt)
	}
	if p.Get() != nil {
		t.Error("exhausted pool returned a packet")
	}
	st := p.Stats()
	if st.Allocs != 4 || st.Failures != 1 {
		t.Errorf("stats = %+v", st)
	}
	for _, pkt := range pkts {
		pkt.Free()
	}
	if p.Available() != 4 {
		t.Errorf("after free available = %d", p.Available())
	}
	if p.Stats().Frees != 4 {
		t.Errorf("frees = %d", p.Stats().Frees)
	}
}

func TestGetResetsState(t *testing.T) {
	p := New(1, 256)
	pkt := p.Get()
	pkt.SetLen(100)
	pkt.Meta = packet.Meta{MID: 9, PID: 9, Version: 9}
	pkt.Ingress = 123
	pkt.Nil = true
	pkt.Free()
	pkt = p.Get()
	if pkt.Len() != 0 || pkt.Meta != (packet.Meta{}) || pkt.Ingress != 0 || pkt.Nil {
		t.Errorf("recycled packet not reset: len=%d meta=%+v", pkt.Len(), pkt.Meta)
	}
}

func TestBuffersDoNotAlias(t *testing.T) {
	p := New(2, 64)
	a, b := p.Get(), p.Get()
	ba, bb := a.Buffer(), b.Buffer()
	for i := range ba {
		ba[i] = 0xaa
	}
	for _, c := range bb {
		if c == 0xaa {
			t.Fatal("buffers alias")
		}
	}
}

func TestDoubleFreePanics(t *testing.T) {
	p := New(1, 64)
	pkt := p.Get()
	pkt.Free()
	defer func() {
		if recover() == nil {
			t.Error("double free did not panic")
		}
	}()
	pkt.Free()
}

func TestInvalidGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0, 0) did not panic")
		}
	}()
	New(0, 0)
}

func TestConcurrentGetFree(t *testing.T) {
	p := New(64, 128)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				pkt := p.Get()
				if pkt != nil {
					pkt.SetLen(64)
					pkt.Free()
				}
			}
		}()
	}
	wg.Wait()
	if p.Available() != 64 {
		t.Errorf("leaked buffers: available = %d", p.Available())
	}
}

func TestReserve(t *testing.T) {
	p := New(8, 64)
	p.SetReserve(3)
	var got []*packet.Packet
	for {
		pkt := p.Get()
		if pkt == nil {
			break
		}
		got = append(got, pkt)
	}
	if len(got) != 5 {
		t.Errorf("Get obtained %d buffers, want 5 (3 reserved)", len(got))
	}
	// The reserved path still reaches the remaining buffers: a batch
	// larger than what is left comes back short, then empty.
	rest := make([]*packet.Packet, 4)
	if n := p.AllocBatchReserved(rest); n != 3 {
		t.Fatalf("AllocBatchReserved = %d, want the 3 reserved buffers", n)
	}
	if p.AllocBatchReserved(rest[:1]) != 0 {
		t.Error("empty pool returned a buffer")
	}
}

// TestAllocBatchExhaustion checks the burst alloc contract: a batch
// against a nearly empty pool comes back short (exactly the returned
// prefix is handed out, nothing leaks), and a batch against an empty
// pool returns zero. Both count one exhaustion event, like a rejected
// scalar Get.
func TestAllocBatchExhaustion(t *testing.T) {
	p := New(8, 64)
	out := make([]*packet.Packet, 6)
	if n := p.AllocBatch(out); n != 6 {
		t.Fatalf("first batch = %d, want 6", n)
	}
	short := make([]*packet.Packet, 6)
	n := p.AllocBatch(short)
	if n != 2 {
		t.Fatalf("short batch = %d, want 2", n)
	}
	for i := 0; i < n; i++ {
		if short[i] == nil {
			t.Fatalf("short[%d] is nil inside returned prefix", i)
		}
	}
	if got := p.AllocBatch(make([]*packet.Packet, 3)); got != 0 {
		t.Errorf("empty pool batch = %d, want 0", got)
	}
	st := p.Stats()
	if st.Allocs != 8 {
		t.Errorf("allocs = %d, want 8", st.Allocs)
	}
	if st.Failures != 2 {
		t.Errorf("failures = %d, want 2 (one short batch, one empty)", st.Failures)
	}
	if st.InUse != 8 {
		t.Errorf("in use = %d, want 8", st.InUse)
	}
	// Nothing was lost: freeing the handed-out prefixes restores the
	// whole pool.
	p.FreeBatch(out)
	p.FreeBatch(short[:n])
	if p.Available() != 8 || p.InUse() != 0 {
		t.Errorf("after frees: available = %d, in use = %d", p.Available(), p.InUse())
	}
}

// TestAllocBatchHonorsReserve checks that batch allocation stops at
// the reserve line, leaving the reserved buffers to the copy path.
func TestAllocBatchHonorsReserve(t *testing.T) {
	p := New(8, 64)
	p.SetReserve(3)
	out := make([]*packet.Packet, 8)
	if n := p.AllocBatch(out); n != 5 {
		t.Fatalf("batch over reserve = %d, want 5", n)
	}
	if p.AllocBatch(make([]*packet.Packet, 1)) != 0 {
		t.Error("batch dug into the reserve")
	}
	if n := p.AllocBatchReserved(make([]*packet.Packet, 3)); n != 3 {
		t.Fatalf("AllocBatchReserved after batch = %d, want 3", n)
	}
}

// TestAllocBatchResetsState verifies recycled packets come out of the
// batched path as fresh as from scalar Get.
func TestAllocBatchResetsState(t *testing.T) {
	p := New(2, 256)
	dirty := p.Get()
	dirty.SetLen(100)
	dirty.Meta = packet.Meta{MID: 9, PID: 9, Version: 9}
	dirty.Ingress = 123
	dirty.Nil = true
	dirty.Free()
	out := make([]*packet.Packet, 2)
	if n := p.AllocBatch(out); n != 2 {
		t.Fatalf("batch = %d", n)
	}
	for i, pkt := range out {
		if pkt.Len() != 0 || pkt.Meta != (packet.Meta{}) || pkt.Ingress != 0 || pkt.Nil {
			t.Errorf("out[%d] not reset: len=%d meta=%+v", i, pkt.Len(), pkt.Meta)
		}
	}
}

// TestFreeBatchRestoresGauge drives the leak gauge through the batched
// path: in-use rises with AllocBatch and returns to zero via FreeBatch,
// with alloc/free counters balanced.
func TestFreeBatchRestoresGauge(t *testing.T) {
	p := New(16, 64)
	batch := make([]*packet.Packet, 10)
	if n := p.AllocBatch(batch); n != 10 {
		t.Fatalf("batch = %d", n)
	}
	if p.InUse() != 10 {
		t.Errorf("in use = %d, want 10", p.InUse())
	}
	p.FreeBatch(batch[:4])
	if p.InUse() != 6 {
		t.Errorf("after partial free in use = %d, want 6", p.InUse())
	}
	p.FreeBatch(batch[4:])
	st := p.Stats()
	if st.InUse != 0 || p.Available() != 16 {
		t.Errorf("after full free: in use = %d, available = %d", st.InUse, p.Available())
	}
	if st.Allocs != 10 || st.Frees != 10 {
		t.Errorf("allocs/frees = %d/%d, want 10/10", st.Allocs, st.Frees)
	}
	if p.FreeBatch(nil); p.Stats().Frees != 10 {
		t.Error("FreeBatch(nil) changed the free counter")
	}
}

// TestFreeBatchOverflowPanics: returning more packets than the pool
// can hold (a double free or a foreign packet) must trip the guard.
func TestFreeBatchOverflowPanics(t *testing.T) {
	p := New(2, 64)
	a, b := p.Get(), p.Get()
	p.FreeBatch([]*packet.Packet{a, b})
	defer func() {
		if recover() == nil {
			t.Error("overflowing FreeBatch did not panic")
		}
	}()
	p.FreeBatch([]*packet.Packet{a, b})
}

// TestBatchScalarInterop mixes scalar and batched alloc/free and
// checks the pool stays consistent (the scalar paths are one-element
// bursts over the same implementation).
func TestBatchScalarInterop(t *testing.T) {
	p := New(8, 64)
	batch := make([]*packet.Packet, 3)
	if n := p.AllocBatch(batch); n != 3 {
		t.Fatalf("batch = %d", n)
	}
	scalar := p.Get()
	if scalar == nil {
		t.Fatal("scalar Get failed alongside batch")
	}
	scalar.Free() // scalar free of a scalar alloc
	batch[0].Free()
	p.FreeBatch(batch[1:])
	if p.Available() != 8 || p.InUse() != 0 {
		t.Errorf("available = %d, in use = %d", p.Available(), p.InUse())
	}
	st := p.Stats()
	if st.Allocs != 4 || st.Frees != 4 {
		t.Errorf("allocs/frees = %d/%d, want 4/4", st.Allocs, st.Frees)
	}
}

// TestConcurrentBatchGetFree races batched allocators/freers against
// scalar ones (run under -race in CI).
func TestConcurrentBatchGetFree(t *testing.T) {
	p := New(64, 128)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := make([]*packet.Packet, 8)
			for i := 0; i < 500; i++ {
				n := p.AllocBatch(batch)
				if n > 0 {
					p.FreeBatch(batch[:n])
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if pkt := p.Get(); pkt != nil {
					pkt.Free()
				}
			}
		}()
	}
	wg.Wait()
	if p.Available() != 64 || p.InUse() != 0 {
		t.Errorf("leaked buffers: available = %d, in use = %d", p.Available(), p.InUse())
	}
}

func TestReserveValidation(t *testing.T) {
	p := New(4, 64)
	defer func() {
		if recover() == nil {
			t.Error("SetReserve(cap) did not panic")
		}
	}()
	p.SetReserve(4)
}

func TestPartitionDistributesBuffers(t *testing.T) {
	p := New(10, 128)
	parts := p.Partition(3)
	if len(parts) != 3 {
		t.Fatalf("partitions = %d", len(parts))
	}
	want := []int{4, 3, 3}
	total := 0
	for i, c := range parts {
		if c.Cap() != want[i] || c.Available() != want[i] {
			t.Errorf("partition %d: cap = %d avail = %d, want %d", i, c.Cap(), c.Available(), want[i])
		}
		total += c.Cap()
	}
	if total != p.Cap() {
		t.Errorf("partition caps sum to %d, want %d", total, p.Cap())
	}
}

// A buffer freed from any goroutine must return to the partition it was
// allocated from, no matter which *Pool handle the freeing code holds.
func TestPartitionFreeReturnsToOwner(t *testing.T) {
	p := New(8, 128)
	parts := p.Partition(2)
	pkt := parts[1].Get()
	if pkt == nil {
		t.Fatal("partition Get returned nil")
	}
	if parts[1].InUse() != 1 || parts[0].InUse() != 0 {
		t.Fatalf("in use: part0 = %d part1 = %d", parts[0].InUse(), parts[1].InUse())
	}
	pkt.Free()
	if parts[1].Available() != 4 {
		t.Errorf("partition 1 available = %d, want 4", parts[1].Available())
	}
}

// Regression for the sharded leak gate: a buffer held by ONE partition
// must keep the parent's InUse — the nfpd exit condition — and the
// shared nfp_mempool_in_use gauge non-zero.
func TestPartitionLeakRollsUp(t *testing.T) {
	p := New(16, 128)
	parts := p.Partition(4)
	leak := parts[2].Get()
	if leak == nil {
		t.Fatal("Get returned nil")
	}
	if got := p.InUse(); got != 1 {
		t.Errorf("parent InUse = %d, want 1 (shard leak must roll up)", got)
	}
	if v := p.inUse.Value(); v != 1 {
		t.Errorf("shared in-use gauge = %d, want 1", v)
	}
	if hw := p.inUseHW.Value(); hw < 1 {
		t.Errorf("in-use high water = %d, want >= 1", hw)
	}
	leak.Free()
	if got := p.InUse(); got != 0 {
		t.Errorf("after free parent InUse = %d", got)
	}
}

// The parent stays a working allocator after partitioning: it delegates
// round-robin and only reports exhaustion when every partition is dry.
func TestPartitionedParentDelegates(t *testing.T) {
	p := New(6, 128)
	p.Partition(3)
	got := make([]*packet.Packet, 0, 6)
	for i := 0; i < 6; i++ {
		pkt := p.Get()
		if pkt == nil {
			t.Fatalf("parent Get %d returned nil with buffers free", i)
		}
		got = append(got, pkt)
	}
	if p.Get() != nil {
		t.Error("exhausted partitioned pool returned a packet")
	}
	if st := p.Stats(); st.Allocs != 6 || st.Failures != 1 {
		t.Errorf("stats = %+v, want 6 allocs and exactly 1 failure", st)
	}
	// A batch spanning partitions comes back full.
	for _, pkt := range got {
		pkt.Free()
	}
	batch := make([]*packet.Packet, 6)
	if n := p.AllocBatch(batch); n != 6 {
		t.Fatalf("AllocBatch = %d, want 6", n)
	}
	p.FreeBatch(batch)
	if p.Available() != 6 || p.InUse() != 0 {
		t.Errorf("after FreeBatch: available = %d, in use = %d", p.Available(), p.InUse())
	}
}

// Every partition keeps its own reserved slice for AllocBatchReserved.
func TestPartitionSetReserve(t *testing.T) {
	p := New(8, 128)
	parts := p.Partition(2)
	for _, c := range parts {
		c.SetReserve(1)
		// Each partition of 4 holds 1 reserved buffer.
		a := c.Get()
		b := c.Get()
		cc := c.Get()
		if a == nil || b == nil || cc == nil {
			t.Fatal("Get failed above the reserve line")
		}
		if c.Get() != nil {
			t.Error("Get dipped into the partition reserve")
		}
		var one [1]*packet.Packet
		if c.AllocBatchReserved(one[:]) != 1 {
			t.Error("AllocBatchReserved failed on the partition reserve")
		}
		r := one[0]
		for _, pkt := range []*packet.Packet{a, b, cc, r} {
			if pkt != nil {
				pkt.Free()
			}
		}
	}
}

func TestPartitionMisusePanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	expectPanic("double partition", func() {
		p := New(4, 128)
		p.Partition(2)
		p.Partition(2)
	})
	expectPanic("partition with outstanding buffers", func() {
		p := New(4, 128)
		_ = p.Get()
		p.Partition(2)
	})
	expectPanic("more partitions than buffers", func() {
		New(2, 128).Partition(3)
	})
	expectPanic("reserve on the facade", func() {
		p := New(4, 128)
		p.Partition(2)
		p.SetReserve(1)
	})
}

// TestAllocRestoresHeadroom: a frame starts Headroom bytes into its
// slot (half of a small slot), an insertion that moved its head into
// the headroom is undone by the next allocation, and partitioning keeps
// the geometry.
func TestAllocRestoresHeadroom(t *testing.T) {
	for _, c := range []struct{ size, room int }{{2048, 2048 - Headroom}, {64, 32}} {
		p := New(2, c.size)
		pkt := p.Get()
		if len(pkt.Buffer()) != c.room {
			t.Fatalf("slot %d: frame room %d, want %d", c.size, len(pkt.Buffer()), c.room)
		}
		pkt.SetLen(20)
		if err := pkt.InsertAt(0, make([]byte, 8)); err != nil {
			t.Fatal(err)
		}
		if len(pkt.Buffer()) != c.room+8 {
			t.Fatalf("slot %d: an insert at the front did not use the headroom", c.size)
		}
		pkt.Free()
		if pkt = p.Get(); len(pkt.Buffer()) != c.room || pkt.Len() != 0 {
			t.Fatalf("slot %d: allocation did not restore the headroom (room %d)", c.size, len(pkt.Buffer()))
		}
		pkt.Free()
		for _, part := range p.Partition(2) {
			if pkt := part.Get(); len(pkt.Buffer()) != c.room {
				t.Fatalf("slot %d: partition frame room %d, want %d", c.size, len(pkt.Buffer()), c.room)
			}
		}
	}
}
