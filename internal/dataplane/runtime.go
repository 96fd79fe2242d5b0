package dataplane

import (
	"sync/atomic"
	"time"

	"nfp/internal/flowtab"
	"nfp/internal/nf"
	"nfp/internal/packet"
	"nfp/internal/ring"
	"nfp/internal/telemetry"
	"nfp/internal/telemetry/flightrec"
)

// instBox wraps the live NF instance so a restart can swap in a fresh
// one with a single atomic pointer store while the runtime goroutine
// keeps draining (it picks the replacement up at its next burst).
type instBox struct {
	nf nf.NF
}

// segNF is one NF slot of a (possibly fused) runtime: the plan node it
// executes, its live instance, and its registry-backed metrics. Every
// NF keeps its own counters and service-time histogram whether it runs
// alone or fused into a segment, so per-NF conservation
// (in == out + drops) and telemetry cardinality are identical in both
// execution modes.
type segNF struct {
	plan  *PlanNode
	instP atomic.Pointer[instBox]
	// panicked marks this slot for instance replacement when the segment
	// restarts.
	panicked atomic.Bool

	// Registry-backed per-NF metrics (labelled nf=<name>, mid=<mid>).
	// healthyG is published at scrape time (Server.pollState) from the
	// live generation's panicked flag: a slot that panics while its
	// generation drains is never restarted, and must not speak for the
	// successor that shares its series.
	pktsIn       *telemetry.Counter
	pktsOut      *telemetry.Counter
	drops        *telemetry.Counter
	panics       *telemetry.Counter
	restarts     *telemetry.Counter
	restartFails *telemetry.Counter
	healthyG     *telemetry.Gauge
	svcTime      *telemetry.Histogram
}

// stateReporter is the optional capability of an NF that keeps per-flow
// state in a flowtab.Table: how full the table is and how often its
// ceiling turned a flow away or displaced one. StateStats is called
// from the scraping goroutine while the NF processes packets.
type stateReporter interface {
	StateStats() flowtab.Stats
}

// stateMetrics are the nfp_nf_state_* series of one NF slot whose
// instance is a stateReporter, with the counts last seen behind the two
// counters, which a restarted instance starts over. They are kept by
// the Server (Server.stateful), not on the slot: its layout is the fast
// path's.
type stateMetrics struct {
	sn                   *segNF
	entries, bytes       *telemetry.Gauge
	evictions, refusals  *telemetry.Counter
	seenEvict, seenRefus uint64
}

// poll publishes what the live instance reports.
func (m *stateMetrics) poll() {
	r, ok := m.sn.inst().(stateReporter)
	if !ok {
		return
	}
	st := r.StateStats()
	m.entries.Set(int64(st.Entries))
	m.bytes.Set(int64(st.Bytes))
	if st.Evictions < m.seenEvict || st.Refusals < m.seenRefus {
		m.seenEvict, m.seenRefus = 0, 0 // a fresh instance after a restart
	}
	m.evictions.Add(st.Evictions - m.seenEvict)
	m.refusals.Add(st.Refusals - m.seenRefus)
	m.seenEvict, m.seenRefus = st.Evictions, st.Refusals
}

// inst returns the live NF instance.
func (s *segNF) inst() nf.NF { return s.instP.Load().nf }

// nodeRT is one NF runtime (§5.2) generalized to a fused segment: the
// shim that collects packets from the receive ring, hands them to its
// NF list in order, and then performs the distributed forwarding
// actions of the LAST node's local forwarding table — including
// copying for parallel branches and conveying drop intentions to the
// join. In the pipelined mode every segment holds exactly one NF and
// this is precisely the paper's per-NF runtime; with fusion on, a
// strictly sequential chain becomes one runtime that threads each
// burst through its NFs back-to-back on the same buffer — BESS-style
// run-to-completion — eliminating the ring handoff per interior edge.
//
// The runtime drains its ring in bursts of Config.Burst references
// (DPDK-style burst receive): ring synchronization, counter updates and
// the service-time histogram samples are paid once per burst, and the
// packets a burst's NFs passed, like the ones they dropped, go on as
// one burst (shard.execBurst, shard.deliver).
//
// The runtime is also the crash boundary, now scoped to the whole
// segment: Process/ProcessBatch run under panic recovery, so a faulty
// NF loses (at most) the burst it was processing — every in-flight
// packet of the panicked burst is routed through that NF's drop path
// back to the pool — and the segment is marked unhealthy, to restart
// after a backoff (onPanic). While unhealthy, arrivals are
// drained and dropped (graceful degradation: the rest of the graph,
// and every other graph, keeps forwarding).
type nodeRT struct {
	nfs []segNF // execution order; nfs[0] owns the receive ring
	// The receive ring (shard.push in, drain out), its high-water mark and
	// backpressure-event name (the head NF's).
	rx     *ring.MPSC[*packet.Packet]
	ringHW *telemetry.Gauge
	site   uint32

	sh *shard // the shard whose goroutines run this segment
	pr *planRuntime

	// Health and restart state, segment-scoped. healthy flips false on
	// panic (runtime goroutine) and true on restart (timer goroutine);
	// backoffNS doubles per panic up to restartBackoffMax.
	healthy   atomic.Bool
	backoffNS atomic.Int64

	// Per-runtime burst scratch (single consumer, never shared): the
	// drained burst, its verdicts, the packets one NF dropped from it.
	burst    []*packet.Packet
	verdicts []nf.Verdict
	dropped  []*packet.Packet
}

// head is the ring-owning first NF slot; producers stash span cursors
// against it.
func (n *nodeRT) head() *segNF { return &n.nfs[0] }

// tail is the last NF slot; its forwarding table routes the segment's
// survivors downstream.
func (n *nodeRT) tail() *segNF { return &n.nfs[len(n.nfs)-1] }

// invoke runs one NF over one burst inside the crash boundary. It
// reports false when the NF panicked, in which case the verdicts are
// meaningless and the caller must treat the whole burst as dropped.
func (n *nodeRT) invoke(s *segNF, pkts []*packet.Packet) (ok bool) {
	defer func() {
		if recover() != nil { // the value is not propagated; counters tell the story
			n.onPanic(s)
			ok = false
		}
	}()
	nf.ProcessAll(s.inst(), pkts, n.verdicts)
	return true
}

// onPanic records an NF crash: the whole segment is unhealthy from now
// until restart swaps a fresh instance into the panicked slot, which it
// arms a timer for at the (exponentially backed off) restart time.
func (n *nodeRT) onPanic(s *segNF) {
	s.panics.Inc()
	n.sh.srv.panics.Add(1)
	s.panicked.Store(true)
	n.sh.note(flightrec.KindPanic, n.pr.gen, n.pr.nodes[s.plan.ID].name, 0)
	backoff := min(max(2*n.backoffNS.Load(), int64(restartBackoff)), int64(restartBackoffMax))
	n.backoffNS.Store(backoff)
	n.healthy.Store(false)
	time.AfterFunc(time.Duration(backoff), n.restart)
}

// dropBurst routes every packet of a burst through NF slot s's drop
// target, charging s's drop counter so per-NF conservation
// (in == out + drops) still holds. cause is the taxonomy cause the
// terminal accounting point will charge (panic, unhealthy_drain or
// reload_drain).
//
// Sampled packets get a closing span so conservation also holds for
// traces: stage says how far they got (ring-wait for unhealthy drains
// whose cursor is still stashed — cursor 0 — or nf for a panicked
// burst, whose preceding spans were already recorded against cursor,
// the last amortized boundary timestamp).
func (n *nodeRT) dropBurst(s *segNF, pkts []*packet.Packet, cause flightrec.Cause, stage telemetry.Stage, cursor int64) {
	s.drops.Add(uint64(len(pkts)))
	tracer := n.sh.srv.tracer
	var now int64
	for _, pkt := range pkts {
		if tracer.Sampled(pkt.Meta.PID) {
			if now == 0 {
				now = time.Now().UnixNano()
			}
			begin := cursor
			if begin == 0 {
				begin = tracer.TakeCursor(pkt.Meta.PID, pkt.Meta.Version, n.head().plan.ID)
			}
			n.sh.span(n.pr, pkt, stage, s.plan.NF.String(), begin, now)
		}
	}
	if now != 0 {
		cursor = now
	}
	n.sh.deliver(n.pr, s.plan.DropTo, pkts, true,
		dropProv{cause: cause, stage: stage, node: int32(s.plan.ID)}, cursor)
}

// restart runs when a crashed segment's backoff deadline passes: it
// builds fresh instances for every panicked slot from the registry and
// swaps them in, then revives the segment, so a panicking NF degrades
// its own shard's micrograph instead of killing the server. A registry
// miss (a caller-provided instance of an unregistered type) counts as a
// failed restart and retries after another backoff period. A stopped
// server's segments and a superseded generation's stay down.
func (n *nodeRT) restart() {
	if n.sh.srv.stopped.Load() || n.pr.gone.Load() {
		return
	}
	for i := range n.nfs {
		s := &n.nfs[i]
		if !s.panicked.Load() {
			continue
		}
		inst, err := n.sh.srv.cfg.Registry.New(s.plan.NF.Name)
		if err != nil {
			s.restartFails.Inc()
			n.sh.note(flightrec.KindRestartFail, n.pr.gen, n.pr.nodes[s.plan.ID].name, 0)
			time.AfterFunc(time.Duration(n.backoffNS.Load()), n.restart)
			return
		}
		s.instP.Store(&instBox{nf: inst})
		s.restarts.Inc()
		n.sh.srv.restarts.Add(1)
		n.sh.note(flightrec.KindRestart, n.pr.gen, n.pr.nodes[s.plan.ID].name, 0)
		s.panicked.Store(false)
	}
	n.healthy.Store(true)
}

// ringWaitSpans closes the ring-wait span of every sampled packet in
// the burst against one amortized dequeue timestamp (the return
// value): begin comes from the cursor the producer stashed at enqueue,
// so the span covers exactly the time the reference sat in the ring.
// Returns 0 — and reads no clock — when the burst has no sampled
// packet. Kept out of processBurst so the traced-path work never
// bloats the hot loop's code.
func (n *nodeRT) ringWaitSpans(tracer *telemetry.Tracer, pkts []*packet.Packet) int64 {
	var t1 int64
	h := n.head()
	for _, pkt := range pkts {
		if tracer.Sampled(pkt.Meta.PID) {
			if t1 == 0 {
				t1 = time.Now().UnixNano()
			}
			n.sh.span(n.pr, pkt, telemetry.StageRingWait, h.plan.NF.String(),
				tracer.TakeCursor(pkt.Meta.PID, pkt.Meta.Version, h.plan.ID), t1)
		}
	}
	return t1
}

// processBurst handles one drained burst: for each NF of the segment
// in order — one counter add for arrivals, one invocation (batched
// when the NF supports it), one service-time sample (the burst's mean
// per-packet time), the packets it dropped routed as one burst through
// that NF's own drop target, and the surviving packets compacted in
// place on the same burst buffer for the next NF. After the last NF the
// survivors are forwarded through its forwarding table as one burst.
//
// With burst=1 and singleton segments every counter, histogram sample
// and trace event lands once per packet, with the values a per-packet
// pipeline would give it. Clock reads stay within the 2/burst
// amortization: one boundary timestamp per NF (k+1 reads for a k-NF
// segment, vs 2k pipelined), each serving as the previous NF's
// service-span end and the next NF's begin, so sampled span chains
// still tile exactly: ring-wait, then one service span per fused NF.
func (n *nodeRT) processBurst(pkts []*packet.Packet) {
	if !n.healthy.Load() {
		// Crashed and not yet restarted: keep the graph draining by
		// dropping arrivals through the normal drop route (buffers return
		// to the pool, joins complete, accounting balances). They never
		// reached the segment, so their span chains close with a ring-wait
		// span into the drop route, charged to the head NF.
		h := n.head()
		h.pktsIn.Add(uint64(len(pkts)))
		n.dropBurst(h, pkts, drainCause(n.pr), telemetry.StageRingWait, 0)
		return
	}
	tracer := n.sh.srv.tracer
	var t1 int64
	if tracer != nil {
		t1 = n.ringWaitSpans(tracer, pkts)
	}
	cursor := t1
	prev := time.Now()
	for si := range n.nfs {
		s := &n.nfs[si]
		s.pktsIn.Add(uint64(len(pkts)))
		if !n.invoke(s, pkts) {
			// The NF panicked mid-burst: its verdicts (and any partial
			// packet writes) are void. The burst is the failure unit —
			// all its live packets take this NF's drop route back to the
			// pool.
			n.dropBurst(s, pkts, flightrec.CausePanic, telemetry.StageNF, cursor)
			return
		}
		// One amortized boundary timestamp per NF: the histogram sample
		// is the burst's mean per-packet service time (the packet's own
		// when the burst is 1), and the same read closes the sampled
		// service spans.
		now := time.Now()
		s.svcTime.Record(now.Sub(prev).Nanoseconds() / int64(len(pkts)))
		begin := cursor
		if t1 != 0 {
			cursor = now.UnixNano()
		}
		prev = now
		kept := 0
		dropped := n.dropped[:0]
		for i, pkt := range pkts {
			if tracer.Sampled(pkt.Meta.PID) {
				// The burst's amortized invoke interval.
				n.sh.span(n.pr, pkt, telemetry.StageNF, s.plan.NF.String(), begin, cursor)
			}
			if n.verdicts[i] == nf.Drop {
				dropped = append(dropped, pkt)
				continue
			}
			pkts[kept] = pkt
			kept++
		}
		if len(dropped) > 0 {
			// §5.2 "ignore": skip the forwarding actions and convey the
			// dropping intention (the packet references ride along so the
			// join can release the buffers once all tails report).
			s.drops.Add(uint64(len(dropped)))
			n.sh.deliver(n.pr, s.plan.DropTo, dropped, true,
				dropProv{cause: flightrec.CauseNFVerdict, stage: telemetry.StageNF, node: int32(s.plan.ID)}, cursor)
		}
		if kept == 0 {
			return
		}
		s.pktsOut.Add(uint64(kept))
		pkts = pkts[:kept]
	}
	n.sh.execBurst(n.pr, n.tail().plan.Next, pkts, cursor)
}
