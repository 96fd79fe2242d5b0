package dataplane

import (
	"fmt"
	"strconv"
	"time"

	"nfp/internal/graph"
	"nfp/internal/packet"
	"nfp/internal/ring"
	"nfp/internal/telemetry"
)

// mergeItem is one branch-tail report delivered to a merger instance:
// the packet reference (still live even when the NF decided to drop, so
// the merger can release the buffer) plus the join it belongs to. It
// carries the packet's generation runtime, not just a MID: during a
// reload two generations of the same MID drain through the same
// mergers, and each packet must resolve its join spec and continuation
// against the plan it was injected under.
type mergeItem struct {
	pkt     *packet.Packet
	pr      *planRuntime
	join    int
	dropped bool
	// prov is the drop provenance riding with a dropped tail (zero
	// otherwise); the first dropped tail's provenance wins at the entry
	// and travels to the terminal accounting point.
	prov dropProv
	// cursor is the tail's span-chain position at delivery (end
	// timestamp of its last span; 0 when the packet is unsampled), the
	// begin of its merge-wait span.
	cursor int64
}

// merger is one merger instance. The paper implements mergers as NFs so
// they can be instantiated/destroyed dynamically; here each instance is
// a goroutine with its own receive ring of merge items (which cannot
// fill, shard.admit) and a local Accumulating Table, fed by the merger
// agent's PID hash (shard.joinPush).
//
// It is a stage like any other: it takes a drained burst of tails and
// what that burst completes leaves as bursts (accept).
type merger struct {
	name   string // "merger-<id>" for trace events (shard via the span tag)
	rx     *ring.MPSC[mergeItem]
	ringHW *telemetry.Gauge // the ring's high-water mark
	// at is allocated when the first plan with a join is built
	// (buildRuntime), before any tail can exist: a server that never
	// joins never pays for it.
	at *atTable
	sh *shard

	// Burst scratch (single consumer, never shared). A join waits for at
	// least two tails, so a backlogged merger needs 2×Burst items a drain
	// to emit full bursts. (One drain can complete more than a Burst of
	// packets: each item may be the last tail of an entry born in an
	// earlier drain, as when a stalled branch lets go of its backlog.)
	batch []mergeItem
	// out collects the finalized bases that share the header outKey, in
	// completion order, until flush sends them on as one burst — at a key
	// change, at a full Burst, at the end of the drain; outSampled says
	// one of them is traced.
	out        []*packet.Packet
	outKey     burstKey
	outSampled bool
	// spent collects the non-base copies of the bases in out (and of the
	// one about to join them), returned to the pool in one batch before
	// the bases go on: at most every other version of a full out.
	spent []*packet.Packet
	// now is the clock read of the burst being accepted: the birth stamp
	// of its new entries, the end of every merge latency and merge-wait
	// span it closes. mergeEnd is its second read, taken only if it
	// finalizes a sampled packet: where their merge spans end.
	now, mergeEnd int64

	// Registry-backed per-instance metrics (labelled instance=<id>,
	// plus shard=<i> on a sharded server).
	processed *telemetry.Counter
	merged    *telemetry.Counter
	drops     *telemetry.Counter
	atSize    *telemetry.Gauge
	atHW      *telemetry.Gauge
	mergeLat  *telemetry.Histogram
}

// burstKey is what the packets of one outgoing burst share: the
// generation runtime and join whose continuation (or drop route) they
// take, and the verdict with its provenance.
type burstKey struct {
	pr      *planRuntime
	join    int
	dropped bool
	prov    dropProv
}

func newMerger(id int, sh *shard) *merger {
	tel := sh.srv.tel
	burst := sh.srv.cfg.Burst
	inst := sh.labelShard([]telemetry.Label{telemetry.L("instance", strconv.Itoa(id))})
	return &merger{
		name:      "merger-" + strconv.Itoa(id),
		rx:        ring.NewMPSCOf[mergeItem](mergerQueue),
		ringHW:    tel.Gauge("nfp_merger_ring_high_water", inst...),
		sh:        sh,
		batch:     make([]mergeItem, 2*burst),
		out:       make([]*packet.Packet, 0, burst),
		spent:     make([]*packet.Packet, 0, burst*packet.MaxVersion),
		processed: tel.Counter("nfp_merger_processed_total", inst...),
		merged:    tel.Counter("nfp_merger_merged_total", inst...),
		drops:     tel.Counter("nfp_merger_drops_total", inst...),
		atSize:    tel.Gauge("nfp_merger_at_size", inst...),
		atHW:      tel.Gauge("nfp_merger_at_high_water", inst...),
		mergeLat:  tel.Histogram("nfp_merger_merge_latency_ns", inst...),
	}
}

// run is the merger goroutine body: it drains the receive ring until
// the server stops (Stop waits for conservation first, so it is empty,
// and then wakes it).
func (m *merger) run() {
	drain(m.rx, m.batch, m.sh.srv.stopped.Load, m.accept)
}

// accept handles one drained burst of tails. Everything per burst is
// paid once: the clock is read once (twice when the burst finalizes a
// sampled packet), the counters and Accumulating Table gauges move once
// (the within-burst peak is still exact), the packets the burst
// completes go on as bursts (finalize, flush), each behind the copies it
// used up, which go back to the pool in one batch.
func (m *merger) accept(items []mergeItem) {
	m.processed.Add(uint64(len(items)))
	m.now, m.mergeEnd = time.Now().UnixNano(), 0
	t, tr := m.at, m.sh.srv.tracer
	peak := t.live
	for k := range items {
		it := &items[k]
		pid, ver := it.pkt.Meta.PID, it.pkt.Meta.Version
		i, fresh := t.at(it.pr, int32(it.join), pid)
		e := &t.slots[i]
		if fresh {
			e.firstNS = m.now
			peak = max(peak, t.live)
		}
		if tr.Sampled(pid) {
			t.noteTail(e, ver, it.cursor)
		}
		e.count++
		e.versions[ver] = it.pkt
		if it.dropped && !e.dropped {
			e.dropped, e.prov = true, it.prov
		}
		if spec := &it.pr.plan.Joins[it.join]; int(e.count) == spec.ExpectTails {
			m.mergeLat.Record(m.now - e.firstNS)
			m.finalize(it.pr, it.join, spec, e)
			t.remove(i)
		}
	}
	m.flush()
	m.atSize.Set(int64(t.live))
	m.atHW.SetMax(int64(peak))
}

// finalize completes one packet's join: reconcile drops, apply the
// merging operations to the base copy, set the other copies aside for
// release, and queue the base for the continuation — all against the
// packet's own generation runtime, so a packet injected before a reload
// finishes on the plan that admitted it.
func (m *merger) finalize(pr *planRuntime, join int, spec *JoinSpec, e *atEntry) {
	mid := pr.plan.MID
	base := e.versions[spec.BaseVersion]

	// Close every tail's merge-wait span against the burst's clock read:
	// each branch's wait in the Accumulating Table is visible
	// individually, and the shared end timestamp is where the surviving
	// base chain resumes — so the base chain still tiles exactly (its own
	// merge-wait ends where the merge span begins).
	tr := m.sh.srv.tracer
	sampled := tr.Sampled(e.pid)
	if sampled {
		for n := e.firstTail; n != 0; n = m.at.tails[n-1].next {
			tail := &m.at.tails[n-1]
			tr.RecordSpan(telemetry.TraceEvent{
				PID: e.pid, MID: mid, Ver: tail.ver,
				Stage: telemetry.StageMergeWait, Name: m.name,
				Join: spec.ID + 1, Begin: tail.cursor, TS: m.now,
				Shard: m.sh.spanID, Gen: pr.spanGen,
			})
		}
		m.at.dropTails(e)
	}

	switch {
	case e.dropped && base == nil:
		// The base never arrived (its own branch dropped it and the
		// buffer came through as a dropped item under the base version —
		// or the entry is inconsistent). Synthesize a nil carrier for
		// propagation, keeping the PID so trace spans of the drop stay
		// attributed to the packet.
		base = packet.NewNil(packet.Meta{MID: mid, PID: e.pid, Version: spec.BaseVersion})
	case base == nil:
		// A non-dropped packet must always include its base version;
		// anything else is a plan bug worth crashing loudly on.
		panic(fmt.Sprintf("dataplane: join %d of mid %d completed without base version %d",
			spec.ID, mid, spec.BaseVersion))
	case !e.dropped:
		for i := range spec.Ops {
			if err := applyMergeOp(base, &spec.Ops[i], &e.versions); err != nil {
				// A malformed copy (e.g. truncated beyond the op's field)
				// degrades to passing the base through unmodified; the
				// operator sees the count.
				m.sh.srv.mergeErrs.Add(1)
				break
			}
		}
		if len(spec.Ops) > 0 {
			// Merge ops pulled bytes from (possibly header-only) copies,
			// so the base's L4 checksum is stale. NFs maintain the
			// checksum after their own writes (the well-behaved-middlebox
			// contract), so recomputing over the merged content reproduces
			// exactly the checksum sequential execution would have left.
			base.UpdateL4Checksum()
		}
	}
	// Every received copy except the base is spent (a copy this stage
	// made, out of the shard's partition: the version that entered the
	// stage is its join's base, compilePar); the base goes on through the
	// continuation, or carries the drop to the outer join or output.
	// Only the join's own versions can arrive (spec.Versions, base
	// first).
	for _, v := range spec.Versions[1:] {
		if pkt := e.versions[v]; pkt != nil {
			m.spent = append(m.spent, pkt)
		}
	}
	// Bases leave in completion order: one that cannot share the open
	// burst's header closes it first.
	if key := (burstKey{pr, join, e.dropped, e.prov}); key != m.outKey {
		m.flush()
		m.outKey = key
	}
	m.out = append(m.out, base)
	m.outSampled = m.outSampled || sampled
	if len(m.out) == m.sh.srv.cfg.Burst {
		m.flush()
	}
}

// flush sends the collected bases on as one burst: through the join's
// continuation, or down its drop route. Their spent copies go back to
// the pool first: emit settles a packet's budget on the understanding
// that every buffer it held is free again, and an injector waiting at
// admission allocates against that budget the moment it is settled.
//
// A burst holding a sampled packet carries the span cursor its chain
// resumes from: the end of the merge span (covering the merging
// operations; one clock read for every flush of the drained burst), or of
// merge-wait for a drop.
func (m *merger) flush() {
	if len(m.out) == 0 {
		return
	}
	m.sh.pool.FreeBatch(m.spent)
	m.spent = m.spent[:0]
	pr, spec := m.outKey.pr, &m.outKey.pr.plan.Joins[m.outKey.join]
	var cursor int64
	if m.outSampled {
		cursor = m.now
	}
	if m.outKey.dropped {
		m.drops.Add(uint64(len(m.out)))
		m.sh.deliver(pr, spec.DropTo, m.out, true, m.outKey.prov, cursor)
	} else {
		m.merged.Add(uint64(len(m.out)))
		if m.outSampled {
			if m.mergeEnd == 0 {
				m.mergeEnd = time.Now().UnixNano()
			}
			cursor = m.mergeEnd
			tr := m.sh.srv.tracer
			for _, base := range m.out {
				if tr.Sampled(base.Meta.PID) {
					tr.RecordSpan(telemetry.TraceEvent{
						PID: base.Meta.PID, MID: pr.plan.MID, Ver: base.Meta.Version,
						Stage: telemetry.StageMerge, Name: m.name,
						Join: spec.ID + 1, Begin: m.now, TS: cursor,
						Shard: m.sh.spanID, Gen: pr.spanGen,
					})
				}
			}
		}
		m.sh.execBurst(pr, spec.Next, m.out, cursor)
	}
	// An idle merger must not pin a retired generation's runtime.
	m.out, m.outKey, m.outSampled = m.out[:0], burstKey{}, false
}

// applyMergeOp applies one §5.3 merging operation to the base packet.
func applyMergeOp(base *packet.Packet, op *graph.MergeOp, versions *[packet.MaxVersion + 1]*packet.Packet) error {
	switch op.Kind {
	case graph.OpModify:
		src := versions[op.SrcVersion]
		if src == nil {
			return fmt.Errorf("merge: modify source v%d missing", op.SrcVersion)
		}
		srcBytes := src.FieldBytes(op.SrcField)
		if srcBytes == nil {
			return fmt.Errorf("merge: source field %v missing in v%d", op.SrcField, op.SrcVersion)
		}
		r, ok := base.FieldRange(op.DstField)
		if !ok {
			return fmt.Errorf("merge: destination field %v missing in base", op.DstField)
		}
		if r.Len == len(srcBytes) {
			switch op.DstField {
			case packet.FieldSrcIP, packet.FieldDstIP, packet.FieldTTL, packet.FieldSrcPort, packet.FieldDstPort:
				// No offset depends on these: the parsed layout stays, the
				// flow key and the IP checksum follow the bytes.
				base.OverwriteField(op.DstField, srcBytes)
			case packet.FieldIPHeader:
				// A whole header brings its own protocol byte and total
				// length: the layout may change, so parse again.
				copy(base.Buffer()[r.Off:r.Off+r.Len], srcBytes)
				refreshIP(base)
			default:
				copy(base.Buffer()[r.Off:r.Off+r.Len], srcBytes)
			}
			return nil
		}
		// Variable-length field (payload): splice.
		if err := base.RemoveAt(r.Off, r.Len); err != nil {
			return err
		}
		if err := base.InsertAt(r.Off, srcBytes); err != nil {
			return err
		}
		refreshIP(base)
		return nil

	case graph.OpAdd:
		src := versions[op.SrcVersion]
		if src == nil {
			return fmt.Errorf("merge: add source v%d missing", op.SrcVersion)
		}
		srcBytes := src.FieldBytes(op.SrcField)
		if srcBytes == nil {
			return fmt.Errorf("merge: source field %v missing in v%d", op.SrcField, op.SrcVersion)
		}
		anchor, ok := base.FieldRange(op.DstField)
		if !ok {
			return fmt.Errorf("merge: anchor field %v missing in base", op.DstField)
		}
		off := anchor.Off
		if op.After {
			off += anchor.Len
		}
		if err := base.InsertAt(off, srcBytes); err != nil {
			return err
		}
		if op.SrcField == packet.FieldAH {
			// Splicing an AH header also rewrites the protocol chain.
			l3 := packet.EthHeaderLen
			base.Buffer()[l3+9] = packet.ProtoAH
		}
		refreshIP(base)
		return nil

	case graph.OpRemove:
		r, ok := base.FieldRange(op.DstField)
		if !ok {
			return fmt.Errorf("merge: field %v to remove missing in base", op.DstField)
		}
		var next uint8
		if op.DstField == packet.FieldAH {
			next = base.Buffer()[r.Off] // AH next-header field
		}
		if err := base.RemoveAt(r.Off, r.Len); err != nil {
			return err
		}
		if op.DstField == packet.FieldAH {
			base.Buffer()[packet.EthHeaderLen+9] = next
		}
		refreshIP(base)
		return nil
	}
	return fmt.Errorf("merge: unknown op kind %v", op.Kind)
}

// refreshIP re-synchronizes the IP total length and checksum after a
// structural change.
func refreshIP(p *packet.Packet) {
	p.Invalidate()
	if err := p.Parse(); err == nil {
		p.SetTotalLen(uint16(p.Len() - packet.EthHeaderLen))
	}
}
