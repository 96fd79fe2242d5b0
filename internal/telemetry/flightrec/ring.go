package flightrec

import (
	"sync"

	"nfp/internal/packet"
)

// runKey is what makes two events "the same event again": kind, drop
// cause, origin node and config generation.
type runKey struct {
	gen   uint64
	node  uint32
	kind  Kind
	cause Cause
}

// slot is one ring entry: a single event, or — for the per-packet and
// per-stall kinds (see Kind.coalesces) — a whole run of events sharing a
// runKey. A run keeps its first event as the exemplar (timestamp, stage,
// PID, flow key, span cursor), the timestamp of its latest, and their
// summed Count. It holds no pointers, so the collector never scans a
// ring.
type slot struct {
	runKey
	stage       uint8
	detail      uint32
	first, last int64
	count       uint64
	pid         uint64
	cursor      int64
	flow        packet.FlowKey
	hasFlow     bool
}

// ring is one shard's fixed-size event ring. Appending overwrites the
// oldest slot once full; an event of a coalescing kind whose run still
// has a slot in the ring folds into that slot instead of appending. So
// however many packets a drop cause or a parked producer accounts for,
// it holds one slot, and the rare events — a
// panic, a restart, a reload — are lapped only by the ring's size in
// DISTINCT happenings, not by traffic.
type ring struct {
	mu    sync.Mutex
	mask  uint64
	head  uint64 // slots ever appended; slot t lives at slots[t&mask]
	slots []slot
	// runs maps each coalescing run retained in the ring to its slot's
	// ticket. A key has at most one slot in the ring at a time.
	runs map[runKey]uint64
}

func newRing(size int) *ring {
	n := 1
	for n < size {
		n <<= 1
	}
	return &ring{mask: uint64(n - 1), slots: make([]slot, n), runs: make(map[runKey]uint64)}
}

// record adds one event. Allocation-free except when a run key is first
// seen.
func (r *ring) record(e slot) {
	coalesces := e.kind.coalesces()
	r.mu.Lock()
	defer r.mu.Unlock()
	if coalesces {
		if t, ok := r.runs[e.runKey]; ok {
			s := &r.slots[t&r.mask]
			s.count += e.count
			s.last = e.last
			return
		}
	}
	t := r.head
	r.head++
	s := &r.slots[t&r.mask]
	if t > r.mask && s.kind.coalesces() {
		delete(r.runs, s.runKey) // the lapped slot was that run's only one
	}
	*s = e
	if coalesces {
		r.runs[e.runKey] = t
	}
}

// snapshot copies up to max of the newest slots, oldest first. max <= 0
// means the whole retained window.
func (r *ring) snapshot(max int) []slot {
	r.mu.Lock()
	defer r.mu.Unlock()
	lo := uint64(0)
	if n := uint64(len(r.slots)); r.head > n {
		lo = r.head - n
	}
	if max > 0 && r.head-lo > uint64(max) {
		lo = r.head - uint64(max)
	}
	out := make([]slot, 0, r.head-lo)
	for t := lo; t < r.head; t++ {
		out = append(out, r.slots[t&r.mask])
	}
	return out
}
