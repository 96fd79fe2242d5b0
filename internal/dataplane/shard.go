package dataplane

import (
	"fmt"
	"strconv"
	"time"

	"nfp/internal/flow"
	"nfp/internal/mempool"
	"nfp/internal/packet"
	"nfp/internal/ring"
	"nfp/internal/telemetry"
)

// shard is one replica of the whole dataplane (RSS-style flow
// sharding): its own microflow cache, plan runtimes with their rings,
// merger instances, output channel and mempool partition. Injectors
// pick a packet's shard by symmetric 5-tuple hash, so every packet of a
// flow — in both directions — executes on the same shard's runtime
// goroutines, and per-flow NF state (NAT bindings, monitor counters,
// LB maps) is only ever touched from that shard, lock-free.
//
// A shard has no ingress goroutine or ring of its own: the injecting
// goroutine classifies inline (inject) and enqueues straight into the
// entry NF's ring, which is multi-producer. A single-shard server
// (Config.Shards <= 1) runs the same code with shard 0 aliasing the
// server's pool and output channel.
type shard struct {
	id  int
	srv *Server
	// spanID is 1+id when the server is sharded, 0 otherwise — the
	// TraceEvent.Shard tag, chosen so single-shard trace output stays
	// byte-identical (the field is omitempty).
	spanID int

	// pool is this shard's mempool partition (the server pool itself
	// when unsharded): packet copies for parallel branches come from
	// here, so the copy path never contends with other shards.
	pool  *mempool.Pool
	plans atomicPlans
	// mergers are this shard's merger instances; the merger agent
	// PID-hash load-balances within the shard.
	mergers []*merger
	// out receives the shard's finished packets (the server output
	// channel when unsharded; fanned in unless Config.ShardedOutputs).
	out chan *packet.Packet

	// ingress counts packets dispatched to this shard, labelled
	// shard=<id> (nil, a no-op, when unsharded).
	ingress *telemetry.Counter
}

// labelShard appends the shard label to a label set when the server is
// sharded; single-shard servers keep every pre-sharding series name and
// label set bit-identical.
func (sh *shard) labelShard(labels []telemetry.Label) []telemetry.Label {
	if sh.srv.sharded() {
		return append(labels, telemetry.L("shard", strconv.Itoa(sh.id)))
	}
	return labels
}

// acquire resolves the live runtime of a MID and reserves n in-flight
// slots on it — the injector half of the reload drain protocol. The
// increment-then-check order against planRuntime.gone makes the race
// with a concurrent generation swap safe: if the reloader observed
// inflight == 0 after setting gone, this injector's increment must
// come later, so it sees gone, backs out, and re-resolves the map —
// which already publishes the successor generation. Returns nil only
// when the MID has no installed graph (graphs are replaced, never
// removed, so a retry cannot lose the MID).
func (sh *shard) acquire(mid uint32, n int) *planRuntime {
	for {
		pr := (*sh.plans.Load())[mid]
		if pr == nil {
			return nil
		}
		pr.inflight.Add(int64(n))
		if !pr.gone.Load() {
			return pr
		}
		pr.inflight.Add(int64(-n))
	}
}

// inject is the §5.1 classifier step for one run of packets bound to
// this shard, executed on the injecting goroutine: classify against the
// shard's microflow cache, then send each run of same-MID packets into
// the entrance of its graph as one burst. It returns the number
// accepted and stably partitions pkts like InjectBatch: rejects —
// unmatched, or classified to a MID with no installed graph — end up in
// pkts[n:], still owned by the caller.
func (sh *shard) inject(pkts []*packet.Packet) int {
	classified := sh.srv.classifier.ClassifyBatchShard(pkts, sh.id)
	plans := *sh.plans.Load()
	n := 0
	for i := 0; i < classified; i++ {
		if plans[pkts[i].Meta.MID] != nil {
			promote(pkts, n, i)
			n++
		}
	}
	// acquire re-resolves the runtime per run: a reload may swap the
	// generation between the snapshot above and here, and the
	// snapshot's nil-check stays valid because graphs are only ever
	// replaced, never removed.
	for i := 0; i < n; {
		mid := pkts[i].Meta.MID
		j := i + 1
		for j < n && pkts[j].Meta.MID == mid {
			j++
		}
		sh.injectBurst(sh.acquire(mid, j-i), pkts[i:j])
		i = j
	}
	return n
}

// classifySpan records the classify span of a sampled packet: it
// begins at the source's Ingress stamp when one is set (and sane) so
// ingress queueing is attributed, and ends at now — the cursor every
// downstream span chains from.
func (sh *shard) classifySpan(pr *planRuntime, pkt *packet.Packet, now int64) {
	begin := pkt.Ingress
	if begin <= 0 || begin > now {
		begin = now
	}
	sh.srv.tracer.RecordSpan(telemetry.TraceEvent{
		PID: pkt.Meta.PID, MID: pkt.Meta.MID, Ver: pkt.Meta.Version,
		Stage: telemetry.StageClassify, Name: "classifier",
		Begin: begin, TS: now, Shard: sh.spanID, Gen: pr.spanGen,
	})
}

// injectBurst sends a burst of same-MID packets into their graph. The
// caller must have reserved the burst's in-flight slots on pr via
// acquire.
func (sh *shard) injectBurst(pr *planRuntime, pkts []*packet.Packet) {
	// The clock is read once per burst, and only when the burst holds a
	// sampled packet: the span cursor is unused otherwise.
	var now int64
	for _, pkt := range pkts {
		// Pre-warm the layout and flow-key caches so NFs sharing the
		// packet in a no-copy parallel group only read them (writing
		// either lazily would be a data race between runtimes, even with
		// identical values). FlowKey parses internally.
		_, _ = pkt.FlowKey()
		if sh.srv.tracer.Sampled(pkt.Meta.PID) {
			if now == 0 {
				now = time.Now().UnixNano()
			}
			sh.classifySpan(pr, pkt, now)
		}
	}
	sh.srv.injected.Add(uint64(len(pkts)))
	sh.execBurst(pr, pr.plan.Entry, pkts, now)
}

// exec runs a forwarding-table dispatch list on a packet. The held map
// collects the versions materialized so far, seeded with the incoming
// packet under its own version. cursor is the span-chain position (end
// timestamp of the packet's previous span; 0 when unsampled) — copies
// fork their own chain off it, and every delivery carries its
// version's cursor forward.
func (sh *shard) exec(pr *planRuntime, ds []Dispatch, pkt *packet.Packet, cursor int64) {
	s := sh.srv
	var held [packet.MaxVersion + 1]*packet.Packet
	held[pkt.Meta.Version] = pkt
	var curs [packet.MaxVersion + 1]int64
	curs[pkt.Meta.Version] = cursor
	sampled := s.tracer.Sampled(pkt.Meta.PID)
	for _, d := range ds {
		src := held[d.SrcVersion]
		if src == nil {
			panic(fmt.Sprintf("dataplane: dispatch references missing version %d", d.SrcVersion))
		}
		out := src
		if d.NewVersion != 0 {
			cp := sh.allocCopy()
			if d.FullCopy {
				packet.FullCopy(src, cp, d.NewVersion)
			} else {
				packet.HeaderOnlyCopy(src, cp, d.NewVersion)
			}
			s.copies.Add(1)
			s.copiedB.Add(uint64(cp.Len()))
			if sampled {
				now := time.Now().UnixNano()
				s.tracer.RecordSpan(telemetry.TraceEvent{
					PID: pkt.Meta.PID, MID: pkt.Meta.MID, Ver: d.NewVersion,
					Stage: telemetry.StageCopy, Name: "copy", SrcVer: d.SrcVersion,
					Begin: curs[d.SrcVersion], TS: now, Shard: sh.spanID, Gen: pr.spanGen,
				})
				curs[d.NewVersion] = now
			}
			held[d.NewVersion] = cp
			out = cp
		}
		for _, t := range d.Targets {
			sh.deliver(pr, t, out, false, dropProv{}, curs[out.Meta.Version])
		}
	}
}

// execBurst runs one dispatch list over a burst of packets. The common
// chain shape — a single no-copy dispatch to one downstream NF — is
// delivered with one batched ring enqueue and one high-water sample;
// everything else (copies, joins, multi-target fan-out) falls back to
// the scalar executor per packet, which already handles every shape.
// cursor is shared by the whole burst: sampled packets of one burst
// chain from the same amortized clock read.
func (sh *shard) execBurst(pr *planRuntime, ds []Dispatch, pkts []*packet.Packet, cursor int64) {
	if len(pkts) == 1 {
		sh.exec(pr, ds, pkts[0], cursor)
		return
	}
	if len(ds) == 1 && ds[0].NewVersion == 0 &&
		len(ds[0].Targets) == 1 && ds[0].Targets[0].Kind == ToNode &&
		len(pkts) > 0 && pkts[0].Meta.Version == ds[0].SrcVersion {
		sh.ringPush(pr, pr.owner[ds[0].Targets[0].Node], pkts, cursor)
		return
	}
	for _, pkt := range pkts {
		sh.exec(pr, ds, pkt, cursor)
	}
}

// allocCopy obtains a buffer from the shard's pool partition, applying
// lossless backpressure (bounded spin, then park) when the partition is
// momentarily exhausted.
func (sh *shard) allocCopy() *packet.Packet {
	if pkt := sh.pool.GetReserved(); pkt != nil {
		return pkt
	}
	s := sh.srv
	w := ring.Waiter{SpinLimit: s.cfg.SpinLimit}
	engaged := false
	for {
		if w.Wait() {
			s.bpParks.Add(1)
			if !engaged {
				engaged = true
				sh.noteBackpressure(s.recPoolID, 0)
			}
		} else {
			s.bpYields.Add(1)
		}
		if pkt := sh.pool.GetReserved(); pkt != nil {
			return pkt
		}
	}
}

// deliver sends one packet reference to a target, carrying the span
// cursor (end timestamp of the packet's previous span, 0 unsampled)
// into the next stage: ring deliveries stash it for the consumer, join
// deliveries ride it on the merge item, and output closes the chain
// with the terminal span. prov is the drop provenance (meaningful only
// when dropped): the ToOutput arm is the single terminal accounting
// point, so attributing the cause here — after mergers collapse
// parallel copies to one verdict — keeps the per-cause counters
// summing exactly to total drops.
func (sh *shard) deliver(pr *planRuntime, t Target, pkt *packet.Packet, dropped bool, prov dropProv, cursor int64) {
	s := sh.srv
	switch t.Kind {
	case ToNode:
		var one [1]*packet.Packet
		one[0] = pkt
		sh.ringPush(pr, pr.owner[t.Node], one[:], cursor)
	case ToJoin:
		// Merger agent (§5.3): hash the immutable PID to pick the
		// merger instance, so all copies of one packet meet at the
		// same merger while different packets spread across instances.
		// The item carries the packet's OWN generation runtime: during
		// a reload, old- and new-generation packets of the same MID can
		// interleave at one merger, and each must finalize against its
		// own plan tables.
		m := sh.mergers[flow.HashPID(pkt.Meta.PID)%uint64(len(sh.mergers))]
		m.in <- mergeItem{pkt: pkt, pr: pr, join: t.Join, dropped: dropped, prov: prov, cursor: cursor}
	case ToOutput:
		// now is the terminal timestamp of a sampled packet (0 when
		// unsampled): the end of its last span and of its end-to-end
		// latency, one clock read for both.
		var now int64
		if s.tracer.Sampled(pkt.Meta.PID) {
			now = time.Now().UnixNano()
			st := telemetry.StageOutput
			if dropped {
				st = telemetry.StageDrop
			}
			s.tracer.RecordSpan(telemetry.TraceEvent{
				PID: pkt.Meta.PID, MID: pkt.Meta.MID, Ver: pkt.Meta.Version,
				Stage: st, Begin: cursor, TS: now, Shard: sh.spanID,
				Gen: pr.spanGen,
			})
		}
		// Terminal event: exactly one per injected packet (copies die
		// at joins, drop intentions resolve to one terminal drop). The
		// in-flight slot is released only after the buffer is freed or
		// the output send completed, so inflight == 0 — the reload
		// drain condition — means every packet of the generation has
		// fully surfaced, not merely been handed off.
		if dropped {
			s.drops.Add(1)
			sh.dropCounter(pr, prov).Inc()
			sh.recordDrop(pr, prov, pkt, cursor)
			pkt.Free()
			pr.terminal.Add(1)
			pr.inflight.Add(-1)
			return
		}
		if now != 0 && pkt.Ingress > 0 {
			pr.e2eLat.Record(now - pkt.Ingress)
		}
		s.outCount.Add(1)
		sh.out <- pkt
		pr.terminal.Add(1)
		pr.inflight.Add(-1)
	}
}

// deliverDrop routes a drop intention (with the packet reference so
// buffers can be reclaimed, and its provenance so the terminal
// accounting point can attribute the cause) to the nearest join or the
// output.
func (sh *shard) deliverDrop(pr *planRuntime, t Target, pkt *packet.Packet, prov dropProv, cursor int64) {
	sh.deliver(pr, t, pkt, true, prov, cursor)
}
