package flightrec

import "sync"

// runKey is what makes two events "the same event again": kind, drop
// cause, origin node and config generation.
type runKey struct {
	gen   uint64
	node  uint32
	kind  Kind
	cause Cause
}

// key is the run a record belongs to.
func (e *Record) key() runKey {
	return runKey{gen: e.Gen, node: e.Node, kind: e.Kind, cause: e.Cause}
}

// ring is one shard's fixed-size event ring of Records. Appending
// overwrites the oldest slot once full; an event of a coalescing kind
// whose run still has a slot in the ring folds into that slot instead of
// appending. So however many packets a drop cause or a parked producer
// accounts for, it holds one slot, and the rare events — a panic, a
// restart, a reload — are lapped only by the ring's size in DISTINCT
// happenings, not by traffic.
type ring struct {
	mu    sync.Mutex
	mask  uint64
	head  uint64 // slots ever appended; slot t lives at slots[t&mask]
	slots []Record
	// runs maps each coalescing run retained in the ring to its slot's
	// ticket. A key has at most one slot in the ring at a time.
	runs map[runKey]uint64
}

func newRing(size int) *ring {
	n := 1
	for n < size {
		n <<= 1
	}
	return &ring{mask: uint64(n - 1), slots: make([]Record, n), runs: make(map[runKey]uint64)}
}

// record adds one event. Allocation-free except when a run key is first
// seen.
func (r *ring) record(e Record) {
	k := e.key()
	coalesces := e.Kind.coalesces()
	r.mu.Lock()
	defer r.mu.Unlock()
	if coalesces {
		if t, ok := r.runs[k]; ok {
			s := &r.slots[t&r.mask]
			s.Count += e.Count
			s.last = e.last
			return
		}
	}
	t := r.head
	r.head++
	s := &r.slots[t&r.mask]
	if t > r.mask && s.Kind.coalesces() {
		delete(r.runs, s.key()) // the lapped slot was that run's only one
	}
	*s = e
	if coalesces {
		r.runs[k] = t
	}
}

// snapshot copies up to max of the newest records, oldest first. max
// <= 0 means the whole retained window.
func (r *ring) snapshot(max int) []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	lo := uint64(0)
	if n := uint64(len(r.slots)); r.head > n {
		lo = r.head - n
	}
	if max > 0 && r.head-lo > uint64(max) {
		lo = r.head - uint64(max)
	}
	out := make([]Record, 0, r.head-lo)
	for t := lo; t < r.head; t++ {
		out = append(out, r.slots[t&r.mask])
	}
	return out
}
