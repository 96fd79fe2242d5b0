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

// ringPush delivers a burst of packet references into node n's receive
// ring under the server's backpressure policy. Every packet ends up
// either enqueued or shed (shed packets ride the node's drop route so
// join accounting and buffer reclamation stay exact — a shed is
// indistinguishable from the NF itself dropping the packet, which is
// precisely the §5.2 "ignore" semantics). Partial batch accepts count
// sheds per packet, never per burst.
//
// cursor is the producer's span-chain position; sampled deliveries
// stash it (keyed per (pid, version, node) so shared-group branches of
// one packet never collide) BEFORE the enqueue, so the consumer — who
// may dequeue instantly — always finds it and closes the ring-wait
// span against it.
func (sh *shard) ringPush(pr *planRuntime, n *nodeRT, pkts []*packet.Packet, cursor int64) {
	s := sh.srv
	if tr := s.tracer; tr != nil {
		for _, pkt := range pkts {
			if tr.Sampled(pkt.Meta.PID) {
				tr.StashCursor(pkt.Meta.PID, pkt.Meta.Version, n.head().plan.ID, cursor)
			}
		}
	}
	rem := pkts
	if k := n.rx.EnqueueBatch(rem); k > 0 { // fast path: no waiter state
		rem = rem[k:]
	}
	if len(rem) > 0 {
		w := ring.Waiter{SpinLimit: s.cfg.SpinLimit}
		engaged := false
		for len(rem) > 0 {
			if n.canShed && (n.shedImmediate || w.Exhausted()) {
				sh.shedBurst(pr, n, rem)
				rem = nil
				break
			}
			// Counted per step, not flushed at the end, so a producer
			// parked behind a long stall is visible on /metrics while it
			// is still parked.
			if w.Wait() {
				s.bpParks.Add(1)
				if !engaged {
					engaged = true
					sh.noteBackpressure(pr.nodeNames[n.head().plan.ID], pr.gen)
				}
			} else {
				s.bpYields.Add(1)
			}
			if k := n.rx.EnqueueBatch(rem); k > 0 {
				rem = rem[k:]
				w.Reset()
			}
		}
	}
	n.ringHW.SetMax(int64(n.rx.Len()))
}

// shedBurst drops a run of packet references that could not be
// delivered into n's ring: a shed note on the event ring, then the
// node's drop route (the nearest enclosing join, or the output), which
// resolves to one terminal drop per packet, counted there under the
// shed cause.
func (sh *shard) shedBurst(pr *planRuntime, n *nodeRT, pkts []*packet.Packet) {
	s := sh.srv
	cause := flightrec.CauseShedPriority
	if n.shedImmediate {
		cause = flightrec.CauseDropTail
	}
	s.rec.Event(flightrec.Note{
		Shard: sh.id, Kind: flightrec.KindShed, Gen: pr.gen,
		Node: pr.nodeNames[n.head().plan.ID], Count: uint64(len(pkts)),
	})
	prov := dropProv{cause: cause, stage: telemetry.StageRingWait, node: int32(n.head().plan.ID)}
	for _, pkt := range pkts {
		// A shed packet never reaches the consumer, so reclaim its
		// stashed span cursor here: the drop route continues the chain
		// from where the producer left off.
		var cursor int64
		if s.tracer.Sampled(pkt.Meta.PID) {
			cursor = s.tracer.TakeCursor(pkt.Meta.PID, pkt.Meta.Version, n.head().plan.ID)
		}
		sh.deliverDrop(pr, n.head().plan.DropTo, pkt, prov, cursor)
	}
}
