package ring

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"nfp/internal/packet"
)

func mkPkt(pid uint64) *packet.Packet {
	p := packet.New(make([]byte, 64))
	p.Meta.PID = pid
	return p
}

func TestCapacityRounding(t *testing.T) {
	for _, c := range []struct{ in, want int }{
		{1, 2}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1000, 1024},
	} {
		if got := New(c.in).Cap(); got != c.want {
			t.Errorf("New(%d).Cap() = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestFIFOOrder(t *testing.T) {
	r := New(8)
	for i := uint64(0); i < 8; i++ {
		if !r.Enqueue(mkPkt(i)) {
			t.Fatalf("enqueue %d failed", i)
		}
	}
	if r.Enqueue(mkPkt(99)) {
		t.Error("enqueue into full ring succeeded")
	}
	if r.Len() != 8 {
		t.Errorf("len = %d", r.Len())
	}
	for i := uint64(0); i < 8; i++ {
		p := r.Dequeue()
		if p == nil || p.Meta.PID != i {
			t.Fatalf("dequeue %d: got %v", i, p)
		}
	}
	if r.Dequeue() != nil {
		t.Error("dequeue from empty ring returned a packet")
	}
}

func TestDequeueBatch(t *testing.T) {
	r := New(16)
	for i := uint64(0); i < 5; i++ {
		r.Enqueue(mkPkt(i))
	}
	out := make([]*packet.Packet, 8)
	n := r.DequeueBatch(out)
	if n != 5 {
		t.Fatalf("batch = %d, want 5", n)
	}
	for i := 0; i < 5; i++ {
		if out[i].Meta.PID != uint64(i) {
			t.Errorf("batch order: out[%d].PID = %d", i, out[i].Meta.PID)
		}
	}
}

func TestWrapAround(t *testing.T) {
	r := New(4)
	// Cycle many times past the capacity to exercise index wrapping.
	for round := uint64(0); round < 100; round++ {
		for i := uint64(0); i < 3; i++ {
			if !r.Enqueue(mkPkt(round*3 + i)) {
				t.Fatalf("round %d enqueue failed", round)
			}
		}
		for i := uint64(0); i < 3; i++ {
			p := r.Dequeue()
			if p.Meta.PID != round*3+i {
				t.Fatalf("round %d: got pid %d want %d", round, p.Meta.PID, round*3+i)
			}
		}
	}
}

func TestSPSCConcurrent(t *testing.T) {
	r := New(64)
	const total = 20000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); i < total; {
			if r.Enqueue(mkPkt(i)) {
				i++
			} else {
				runtime.Gosched()
			}
		}
	}()
	var got uint64
	for got < total {
		p := r.Dequeue()
		if p == nil {
			runtime.Gosched()
			continue
		}
		if p.Meta.PID != got {
			t.Fatalf("out of order: got %d want %d", p.Meta.PID, got)
		}
		got++
	}
	wg.Wait()
	if r.Len() != 0 {
		t.Errorf("residual len = %d", r.Len())
	}
}

func TestMPSCConcurrentProducers(t *testing.T) {
	m := NewMPSC(128)
	const producers = 8
	const perProducer = 2000
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for i := uint64(0); i < perProducer; {
				if m.Enqueue(mkPkt(id*perProducer + i)) {
					i++
				} else {
					runtime.Gosched()
				}
			}
		}(uint64(w))
	}
	seen := make(map[uint64]bool, producers*perProducer)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		p := m.Dequeue()
		if p == nil {
			select {
			case <-done:
				if p = m.Dequeue(); p == nil {
					goto check
				}
			default:
				runtime.Gosched()
				continue
			}
		}
		if seen[p.Meta.PID] {
			t.Fatalf("duplicate pid %d", p.Meta.PID)
		}
		seen[p.Meta.PID] = true
	}
check:
	if len(seen) != producers*perProducer {
		t.Errorf("received %d packets, want %d", len(seen), producers*perProducer)
	}
}

func mkPkts(start, n uint64) []*packet.Packet {
	out := make([]*packet.Packet, n)
	for i := range out {
		out[i] = mkPkt(start + uint64(i))
	}
	return out
}

// TestEnqueueBatchTable drives EnqueueBatch through the edge cases:
// empty bursts, bursts larger than the ring, partial acceptance when
// the ring is nearly full, and exact fits.
func TestEnqueueBatchTable(t *testing.T) {
	cases := []struct {
		name    string
		cap     int // requested capacity (rounded up to power of two)
		prefill int // packets enqueued before the burst
		burst   int
		wantAcc int
		wantLen int
	}{
		{"empty burst", 8, 0, 0, 0, 0},
		{"whole burst fits", 8, 0, 5, 5, 5},
		{"exact fit", 8, 0, 8, 8, 8},
		{"oversized burst truncated", 8, 0, 20, 8, 8},
		{"partial on nearly full", 8, 6, 5, 2, 8},
		{"zero on full", 8, 8, 3, 0, 8},
		{"tiny ring", 1, 0, 4, 2, 2}, // capacity 1 rounds to 2
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := New(c.cap)
			for i := 0; i < c.prefill; i++ {
				if !r.Enqueue(mkPkt(uint64(i))) {
					t.Fatalf("prefill %d failed", i)
				}
			}
			acc := r.EnqueueBatch(mkPkts(100, uint64(c.burst)))
			if acc != c.wantAcc {
				t.Errorf("accepted %d, want %d", acc, c.wantAcc)
			}
			if r.Len() != c.wantLen {
				t.Errorf("len = %d, want %d", r.Len(), c.wantLen)
			}
			// Partial acceptance must be the burst's prefix, in order,
			// behind the prefill.
			out := make([]*packet.Packet, r.Cap())
			n := r.DequeueBatch(out)
			if n != c.wantLen {
				t.Fatalf("drained %d, want %d", n, c.wantLen)
			}
			for i := 0; i < c.prefill; i++ {
				if out[i].Meta.PID != uint64(i) {
					t.Errorf("out[%d].PID = %d, want %d", i, out[i].Meta.PID, i)
				}
			}
			for i := 0; i < acc; i++ {
				want := uint64(100 + i)
				if out[c.prefill+i].Meta.PID != want {
					t.Errorf("out[%d].PID = %d, want %d", c.prefill+i, out[c.prefill+i].Meta.PID, want)
				}
			}
		})
	}
}

// TestDequeueBatchEdgeCases covers the consumer-side table: empty
// ring, undersized out slice, zero-length out, oversized out.
func TestDequeueBatchEdgeCases(t *testing.T) {
	r := New(8)
	if n := r.DequeueBatch(make([]*packet.Packet, 4)); n != 0 {
		t.Errorf("dequeue from empty = %d", n)
	}
	if n := r.EnqueueBatch(mkPkts(0, 6)); n != 6 {
		t.Fatalf("enqueue = %d", n)
	}
	if n := r.DequeueBatch(nil); n != 0 {
		t.Errorf("nil out drained %d", n)
	}
	out := make([]*packet.Packet, 4)
	if n := r.DequeueBatch(out); n != 4 {
		t.Fatalf("undersized out = %d, want 4", n)
	}
	for i, p := range out {
		if p.Meta.PID != uint64(i) {
			t.Errorf("out[%d].PID = %d", i, p.Meta.PID)
		}
	}
	big := make([]*packet.Packet, 16)
	if n := r.DequeueBatch(big); n != 2 {
		t.Fatalf("oversized out = %d, want 2", n)
	}
	if big[0].Meta.PID != 4 || big[1].Meta.PID != 5 {
		t.Errorf("tail PIDs = %d,%d", big[0].Meta.PID, big[1].Meta.PID)
	}
}

// TestBatchWrapAround cycles odd-sized bursts through a small ring so
// every batch straddles the index wrap repeatedly.
func TestBatchWrapAround(t *testing.T) {
	r := New(8)
	next := uint64(0) // next PID to enqueue
	want := uint64(0) // next PID expected out
	out := make([]*packet.Packet, 8)
	for round := 0; round < 200; round++ {
		burst := uint64(3 + round%5) // 3..7, ring cap 8: wraps constantly
		acc := r.EnqueueBatch(mkPkts(next, burst))
		next += uint64(acc)
		n := r.DequeueBatch(out[:burst])
		for i := 0; i < n; i++ {
			if out[i].Meta.PID != want {
				t.Fatalf("round %d: got pid %d want %d", round, out[i].Meta.PID, want)
			}
			want++
		}
	}
	// Drain the remainder.
	for {
		n := r.DequeueBatch(out)
		if n == 0 {
			break
		}
		for i := 0; i < n; i++ {
			if out[i].Meta.PID != want {
				t.Fatalf("drain: got pid %d want %d", out[i].Meta.PID, want)
			}
			want++
		}
	}
	if want != next {
		t.Errorf("drained %d packets, enqueued %d", want, next)
	}
}

// TestBatchScalarEquivalenceProperty checks that a batch enqueue/
// dequeue script observes exactly the FIFO a scalar model predicts,
// for arbitrary interleavings and burst sizes.
func TestBatchScalarEquivalenceProperty(t *testing.T) {
	f := func(script []byte) bool {
		r := New(8)
		var model []uint64 // reference FIFO
		next := uint64(0)
		out := make([]*packet.Packet, 16)
		for _, op := range script {
			size := uint64(op % 16)
			if op&0x10 != 0 {
				acc := r.EnqueueBatch(mkPkts(next, size))
				if acc > int(size) {
					return false
				}
				for i := 0; i < acc; i++ {
					model = append(model, next+uint64(i))
				}
				next += uint64(acc)
			} else {
				n := r.DequeueBatch(out[:size])
				if n > len(model) {
					return false
				}
				for i := 0; i < n; i++ {
					if out[i].Meta.PID != model[i] {
						return false
					}
				}
				model = model[n:]
			}
			if r.Len() != len(model) || r.Len() > r.Cap() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSPSCBatchConcurrent stresses a batch producer against a batch
// consumer (run under -race in CI): FIFO order and no loss or
// duplication across partial bursts.
func TestSPSCBatchConcurrent(t *testing.T) {
	r := New(64)
	const total = 20000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		next := uint64(0)
		for next < total {
			burst := uint64(1 + next%32)
			if next+burst > total {
				burst = total - next
			}
			acc := r.EnqueueBatch(mkPkts(next, burst))
			next += uint64(acc)
			if acc == 0 {
				runtime.Gosched()
			}
		}
	}()
	out := make([]*packet.Packet, 32)
	var got uint64
	for got < total {
		n := r.DequeueBatch(out)
		if n == 0 {
			runtime.Gosched()
			continue
		}
		for i := 0; i < n; i++ {
			if out[i].Meta.PID != got {
				t.Fatalf("out of order: got %d want %d", out[i].Meta.PID, got)
			}
			got++
		}
	}
	wg.Wait()
	if r.Len() != 0 {
		t.Errorf("residual len = %d", r.Len())
	}
}

// TestMPSCBatchConcurrentProducers checks the burst analog of the
// multi-producer path: concurrent EnqueueBatch callers must neither
// lose nor duplicate packets, and each producer's own sequence stays
// in order at the single consumer.
func TestMPSCBatchConcurrentProducers(t *testing.T) {
	m := NewMPSC(128)
	const producers = 8
	const perProducer = 4000
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			base := id * perProducer
			next := uint64(0)
			for next < perProducer {
				burst := uint64(1 + next%16)
				if next+burst > perProducer {
					burst = perProducer - next
				}
				acc := m.EnqueueBatch(mkPkts(base+next, burst))
				next += uint64(acc)
				if acc == 0 {
					runtime.Gosched()
				}
			}
		}(uint64(w))
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	seen := make(map[uint64]bool, producers*perProducer)
	lastOf := make(map[uint64]uint64, producers) // producer → last seq seen + 1
	out := make([]*packet.Packet, 32)
	for {
		n := m.DequeueBatch(out)
		if n == 0 {
			select {
			case <-done:
				if n = m.DequeueBatch(out); n == 0 {
					goto check
				}
			default:
				runtime.Gosched()
				continue
			}
		}
		for i := 0; i < n; i++ {
			pid := out[i].Meta.PID
			if seen[pid] {
				t.Fatalf("duplicate pid %d", pid)
			}
			seen[pid] = true
			prod, seq := pid/perProducer, pid%perProducer
			if seq != lastOf[prod] {
				t.Fatalf("producer %d out of order: seq %d want %d", prod, seq, lastOf[prod])
			}
			lastOf[prod] = seq + 1
		}
	}
check:
	if len(seen) != producers*perProducer {
		t.Errorf("received %d packets, want %d", len(seen), producers*perProducer)
	}
}

func TestLenNeverExceedsCapProperty(t *testing.T) {
	// For any interleaving of enqueues/dequeues driven by a boolean
	// script, 0 <= Len() <= Cap() always holds.
	f := func(script []bool) bool {
		r := New(8)
		for _, enq := range script {
			if enq {
				r.Enqueue(mkPkt(0))
			} else {
				r.Dequeue()
			}
			if r.Len() < 0 || r.Len() > r.Cap() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRingLayout pins the ring header: head and tail 64 bytes apart with
// pad on both sides, the wait state out of line, and an MPSC (header
// plus lock) of 168 bytes. With the two conds inside the header it was
// 184 bytes, in another allocation size class, and fwd64's one-burst
// median read 1-2 us higher on a 2-vCPU VM.
func TestRingLayout(t *testing.T) {
	var m MPSC[*packet.Packet]
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"Sizeof(MPSC)", unsafe.Sizeof(m), 168},
		{"wait", unsafe.Offsetof(m.wait), 32},
		{"head", unsafe.Offsetof(m.head), 88},
		{"tail", unsafe.Offsetof(m.tail), 152},
		{"lock", unsafe.Offsetof(m.lock), 160},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}
