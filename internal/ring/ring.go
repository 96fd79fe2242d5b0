// Package ring implements the bounded queues every stage boundary of
// the NFP infrastructure crosses (§5, Figure 3): spinlocked MPSC rings
// over a lock-free SPSC core, generic over their element — NF receive
// rings carry packet references.
//
// "An NF simply writes packet references into the receive ring buffer of
// the other NF to realize packet delivery" — Enqueue/Dequeue move only
// the elements, never packet bytes.
//
// The batch variants (EnqueueBatch/DequeueBatch) are the DPDK-style
// burst fast path: one producer/consumer index update per burst instead
// of per element, so the synchronization cost amortizes across the whole
// burst. The scalar Enqueue/Dequeue are thin wrappers over the batch
// path — there is exactly one drain implementation.
//
// A stalled side spins, then parks until the other side moves (wait.go).
package ring

import (
	"runtime"
	"sync/atomic"

	"nfp/internal/packet"
)

// Ring is a lock-free SPSC ring. Exactly one goroutine may call Enqueue
// and exactly one may call Dequeue (fan-in points use MPSC). Slots are
// plain memory: the producer's store of tail publishes the slots it
// filled, the consumer's store of head hands back the ones it cleared.
type Ring[T any] struct {
	mask uint64
	buf  []T
	// wait is written only by a park, so it sits out of line, beside
	// mask and buf on the line both sides only read, and leaves the
	// index lines and the header's size as they were (TestRingLayout).
	wait *waits

	_    [48]byte // pad head/tail onto separate cache lines
	head atomic.Uint64
	_    [56]byte
	tail atomic.Uint64
}

// waits are a ring's two conds: producers parked on a full ring (room,
// one load per dequeue) and the consumer parked on an empty one (items,
// one load per enqueue).
type waits struct{ room, items Cond }

// New creates a ring of packet references with the given capacity,
// rounded up to a power of two (minimum 2).
func New(capacity int) *Ring[*packet.Packet] {
	r := new(Ring[*packet.Packet])
	r.init(capacity)
	return r
}

func (r *Ring[T]) init(capacity int) {
	n := 2
	for n < capacity {
		n <<= 1
	}
	r.mask, r.buf = uint64(n-1), make([]T, n)
	r.wait = &waits{room: Cond{wake: make(chan struct{}, 1)}, items: Cond{wake: make(chan struct{}, 1)}}
}

// Cap returns the ring capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Len returns the approximate number of queued elements.
func (r *Ring[T]) Len() int {
	return int(r.tail.Load() - r.head.Load())
}

// Enqueue appends one element. It returns false when the ring is full
// (the caller decides whether to drop or retry; NFP runtimes retry,
// modeling backpressure toward the upstream ring).
func (r *Ring[T]) Enqueue(v T) bool {
	one := [1]T{v}
	return r.EnqueueBatch(one[:]) == 1
}

// EnqueueBatch appends up to len(items) elements in FIFO order and
// returns how many were accepted — a partial count when the ring fills
// mid-burst (the caller retries the tail, as with a rejected Enqueue).
// All accepted slots are published with a single release store of the
// producer index, so consumers see either none or all of the burst's
// prefix.
func (r *Ring[T]) EnqueueBatch(items []T) int {
	tail := r.tail.Load()
	free := uint64(len(r.buf)) - (tail - r.head.Load())
	n := uint64(len(items))
	if n > free {
		n = free
	}
	if n == 0 {
		return 0
	}
	k := copy(r.buf[tail&r.mask:], items[:n])
	copy(r.buf, items[k:n]) // the part that wrapped
	r.tail.Store(tail + n)
	r.wait.items.Notify()
	return int(n)
}

// Dequeue removes and returns the oldest element, or the zero value
// (nil for a ring of references) if the ring is empty.
func (r *Ring[T]) Dequeue() T {
	var one [1]T
	r.DequeueBatch(one[:])
	return one[0]
}

// DequeueBatch fills out with up to len(out) elements in FIFO order and
// returns the count, modeling DPDK burst receive. The consumed slots
// are zeroed (a drained ring pins nothing) and released with a single
// store of the consumer index, so the producer regains the whole
// burst's capacity at once.
func (r *Ring[T]) DequeueBatch(out []T) int {
	head := r.head.Load()
	avail := r.tail.Load() - head
	n := uint64(len(out))
	if n > avail {
		n = avail
	}
	if n == 0 {
		return 0
	}
	first := r.buf[head&r.mask:]
	k := copy(out[:n], first)
	clear(first[:k])
	w := copy(out[k:n], r.buf) // the part that wrapped
	clear(r.buf[:w])
	r.head.Store(head + n)
	r.wait.room.Notify()
	return int(n)
}

// AwaitItems parks the consumer until the ring holds an element or
// done reports true; whoever makes done true calls Wake after.
func (r *Ring[T]) AwaitItems(done func() bool) {
	r.wait.items.Park(func() bool { return r.Len() > 0 || done() })
}

// Wake wakes a consumer parked in AwaitItems, so it checks done again.
func (r *Ring[T]) Wake() { r.wait.items.Notify() }

// AwaitRoom parks a producer until the ring has a free slot.
func (r *Ring[T]) AwaitRoom() {
	r.wait.room.Park(func() bool { return r.Len() < r.Cap() })
}

// MPSC is a Ring whose enqueue side any goroutine may use: it overrides
// both producer methods to serialize on a spinlock; the consumer side
// and Len/Cap are the ring's own. NFP uses it at every fan-in point:
// injectors and runtimes into an NF's ring.
type MPSC[T any] struct {
	Ring[T]
	lock atomic.Uint32 // spinlock: producers are short critical sections
}

// NewMPSC creates a multi-producer ring of packet references.
func NewMPSC(capacity int) *MPSC[*packet.Packet] { return NewMPSCOf[*packet.Packet](capacity) }

// NewMPSCOf creates a multi-producer ring of T values.
func NewMPSCOf[T any](capacity int) *MPSC[T] {
	m := new(MPSC[T])
	m.init(capacity)
	return m
}

// Enqueue appends one element from any goroutine.
func (m *MPSC[T]) Enqueue(v T) bool {
	one := [1]T{v}
	return m.EnqueueBatch(one[:]) == 1
}

// EnqueueBatch appends up to len(items) elements from any goroutine
// and returns the accepted count. The whole burst rides on one lock
// acquisition and one producer-index store — the burst analog of DPDK's
// single-CAS multi-producer enqueue.
func (m *MPSC[T]) EnqueueBatch(items []T) int {
	for !m.lock.CompareAndSwap(0, 1) {
		runtime.Gosched() // single-core friendly: let the holder run
	}
	n := m.Ring.EnqueueBatch(items)
	m.lock.Store(0)
	return n
}
