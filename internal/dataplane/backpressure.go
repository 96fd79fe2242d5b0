package dataplane

import (
	"nfp/internal/packet"
	"nfp/internal/ring"
	"nfp/internal/telemetry/flightrec"
)

// backoff is one step of a backpressured producer — a yield while the
// spin budget lasts, then a park in await until what it waits on moves —
// counted as it happens, so a parked producer is visible on /metrics
// while still parked, and each park noted on the event ring against
// site: a full NF ring (push) or the admission budget (acquire).
func (sh *shard) backoff(spin *ring.Spin, await func(), site uint32, gen uint64) {
	s := sh.srv
	if spin.Yield() {
		s.bpYields.Add(1)
		return
	}
	s.bpParks.Add(1)
	sh.note(flightrec.KindBackpressure, gen, site, 1)
	await()
}

// push is the one producer loop: it enqueues a whole burst into n's
// receive ring, backing off while the ring is full — a full ring
// backpressures, it never loses a packet.
func (sh *shard) push(n *nodeRT, gen uint64, pkts []*packet.Packet) {
	rem := pkts[n.rx.EnqueueBatch(pkts):]
	var spin ring.Spin
	for len(rem) > 0 {
		sh.backoff(&spin, n.rx.AwaitRoom, n.site, gen)
		if k := n.rx.EnqueueBatch(rem); k > 0 {
			rem, spin = rem[k:], 0
		}
	}
	n.ringHW.SetMax(int64(n.rx.Len()))
}

// drain is the one consumer loop, a runtime goroutine's body: it hands
// the receive ring's bursts to processBurst until the server stops or a
// reload retires this runtime's generation (either implies an empty
// ring: both wait for the in-flight count). An idle runtime spins, then
// parks until an enqueue (or the Wake after done turns true).
func (n *nodeRT) drain() {
	done := func() bool { return n.sh.srv.stopped.Load() || n.pr.retired.Load() }
	var spin ring.Spin
	for {
		cnt := n.rx.DequeueBatch(n.burst)
		if cnt == 0 {
			if done() {
				return
			}
			if !spin.Yield() {
				n.rx.AwaitItems(done)
			}
			continue
		}
		spin = 0
		n.processBurst(n.burst[:cnt])
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
