package dataplane

import (
	"nfp/internal/packet"
	"nfp/internal/ring"
	"nfp/internal/telemetry/flightrec"
)

// DefaultSpinLimit is the default bounded-spin budget: enough yields to
// ride out a consumer that is merely descheduled, small enough that a
// genuine stall transitions to parking quickly.
const DefaultSpinLimit = 256

// backoff is one pacing step of a backpressured producer — bounded
// spin, then park — counted as it happens, so a producer parked behind
// a long stall is visible on /metrics while it is still parked, with
// the episode's first park noted on the event ring against site: a full
// NF ring (push) or the admission budget (acquire), nothing else waits.
func (sh *shard) backoff(w *ring.Waiter, site uint32, gen uint64) {
	s := sh.srv
	if !w.Wait() {
		s.bpYields.Add(1)
		return
	}
	s.bpParks.Add(1)
	if _, parks := w.Stats(); parks == 1 {
		sh.note(flightrec.KindBackpressure, gen, site, 1)
	}
}

// push is the one producer loop: it enqueues a whole burst into n's
// receive ring, backing off while the ring is full — a full ring
// backpressures, it never loses a packet.
func (sh *shard) push(n *nodeRT, gen uint64, pkts []*packet.Packet) {
	rem := pkts[n.rx.EnqueueBatch(pkts):]
	w := ring.Waiter{SpinLimit: sh.srv.cfg.SpinLimit}
	for len(rem) > 0 {
		sh.backoff(&w, n.site, gen)
		if k := n.rx.EnqueueBatch(rem); k > 0 {
			rem = rem[k:]
			w.Reset()
		}
	}
	n.ringHW.SetMax(int64(n.rx.Len()))
}

// drain is the one consumer loop: it polls a receive ring in bursts
// (busy polling softened by the spin+park waiter, so an idle consumer
// releases its core) and hands each to handle, until done() with the ring
// empty.
func drain[T any](rx *ring.MPSC[T], buf []T, spinLimit int, done func() bool, handle func([]T)) {
	idle := ring.Waiter{SpinLimit: spinLimit}
	for {
		cnt := rx.DequeueBatch(buf)
		if cnt == 0 {
			if done() {
				return
			}
			idle.Wait()
			continue
		}
		idle.Reset()
		handle(buf[:cnt])
	}
}

// ringPush delivers a burst of packet references into node n's receive
// ring. cursor is the producer's span-chain position; sampled deliveries
// stash it (keyed per (pid, version, node) so shared-group branches of
// one packet never collide) BEFORE the enqueue, so the consumer — who
// may dequeue instantly — always finds it.
func (sh *shard) ringPush(pr *planRuntime, n *nodeRT, pkts []*packet.Packet, cursor int64) {
	if tr := sh.srv.tracer; tr != nil { // untraced servers skip the per-packet hash on every hop
		id := n.head().plan.ID
		for _, pkt := range pkts {
			if tr.Sampled(pkt.Meta.PID) {
				tr.StashCursor(pkt.Meta.PID, pkt.Meta.Version, id, cursor)
			}
		}
	}
	sh.push(n, pr.gen, pkts)
}
