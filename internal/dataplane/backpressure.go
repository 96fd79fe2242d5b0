package dataplane

import (
	"fmt"

	"nfp/internal/packet"
	"nfp/internal/ring"
	"nfp/internal/telemetry"
	"nfp/internal/telemetry/flightrec"
)

// BackpressurePolicy selects what a producer does when an NF receive
// ring stays full: the overload contract of every ring in the server.
type BackpressurePolicy uint8

const (
	// BPBlock (the default) never loses a packet: the producer spins a
	// bounded number of yields, then parks with exponential backoff
	// until the ring drains — lossless backpressure that propagates
	// toward the traffic source without pegging a core.
	BPBlock BackpressurePolicy = iota
	// BPDropTail sheds immediately: whatever does not fit in the ring
	// is dropped at the tail (counted as a shed and routed through the
	// normal drop path so joins and pool accounting stay exact).
	BPDropTail
	// BPShedLowestPriority spends the bounded spin budget first, then
	// sheds — but only into the rings of the plan's lowest-priority
	// NFs (ranks from the policy layer's Priority rules, see
	// policy.PriorityRanks and Config.NodePriority); higher-priority
	// NFs keep the lossless block behavior.
	BPShedLowestPriority
)

// String renders the policy as its flag spelling.
func (p BackpressurePolicy) String() string {
	switch p {
	case BPBlock:
		return "block"
	case BPDropTail:
		return "drop-tail"
	case BPShedLowestPriority:
		return "shed-lowest-priority"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// shedCause is the drop cause of the packets a shedding policy gives up on.
func (p BackpressurePolicy) shedCause() flightrec.Cause {
	if p == BPDropTail {
		return flightrec.CauseDropTail
	}
	return flightrec.CauseShedPriority
}

// ParseBackpressurePolicy parses a -ring-policy flag value.
func ParseBackpressurePolicy(s string) (BackpressurePolicy, error) {
	switch s {
	case "block", "":
		return BPBlock, nil
	case "drop-tail", "droptail":
		return BPDropTail, nil
	case "shed-lowest-priority", "shed":
		return BPShedLowestPriority, nil
	}
	return BPBlock, fmt.Errorf("unknown ring policy %q (block, drop-tail, shed-lowest-priority)", s)
}

// DefaultSpinLimit is the default bounded-spin budget: enough yields to
// ride out a consumer that is merely descheduled, small enough that a
// genuine stall transitions to parking (or shedding) quickly.
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

// push is the one producer loop: it enqueues a burst into n's receive
// ring and returns the tail the ring's policy gave up on, for the caller
// to shed — empty when it cannot shed: the producer backs off until room
// is made.
func (sh *shard) push(n *nodeRT, gen uint64, pkts []*packet.Packet) []*packet.Packet {
	rem := pkts[n.rx.EnqueueBatch(pkts):]
	w := ring.Waiter{SpinLimit: sh.srv.cfg.SpinLimit}
	for len(rem) > 0 && !(n.canShed && (n.shedImmediate || w.Exhausted())) {
		sh.backoff(&w, n.site, gen)
		if k := n.rx.EnqueueBatch(rem); k > 0 {
			rem = rem[k:]
			w.Reset()
		}
	}
	n.ringHW.SetMax(int64(n.rx.Len()))
	return rem
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
// ring. Every packet ends up either enqueued or shed: what the policy
// gave up on gets a shed note on the event ring, then rides the node's
// drop route to one terminal drop per packet under the shed cause — so
// join accounting and buffer reclamation stay exact, and a shed is
// indistinguishable from the NF itself dropping the packet (§5.2
// "ignore"). Sheds count per packet, never per burst.
//
// cursor is the producer's span-chain position; sampled deliveries
// stash it (keyed per (pid, version, node) so shared-group branches of
// one packet never collide) BEFORE the enqueue, so the consumer — who
// may dequeue instantly — always finds it. A shed packet's stash is
// reclaimed here: the drop route continues its chain from cursor.
func (sh *shard) ringPush(pr *planRuntime, n *nodeRT, pkts []*packet.Packet, cursor int64) {
	tr, head := sh.srv.tracer, n.head().plan
	if tr != nil { // untraced servers skip the per-packet hash on every hop
		for _, pkt := range pkts {
			if tr.Sampled(pkt.Meta.PID) {
				tr.StashCursor(pkt.Meta.PID, pkt.Meta.Version, head.ID, cursor)
			}
		}
	}
	shed := sh.push(n, pr.gen, pkts)
	if len(shed) == 0 {
		return
	}
	sh.note(flightrec.KindShed, pr.gen, n.site, uint64(len(shed)))
	for _, pkt := range shed {
		if tr.Sampled(pkt.Meta.PID) {
			tr.TakeCursor(pkt.Meta.PID, pkt.Meta.Version, head.ID)
		}
	}
	prov := dropProv{cause: sh.srv.cfg.RingPolicy.shedCause(), stage: telemetry.StageRingWait, node: int32(head.ID)}
	sh.deliver(pr, head.DropTo, shed, true, prov, cursor)
}
