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

// atKey identifies one packet at one join — the Accumulating Table key.
// Keying by the generation runtime (pointer identity is per shard per
// generation) keeps old- and new-generation entries of one MID
// disjoint; PIDs are never reused across a packet's lifetime, so the
// copies of one packet always land on one entry.
type atKey struct {
	pr   *planRuntime
	join int
	pid  uint64
}

// mergeTail is one sampled branch tail awaiting its join: the version
// that arrived and its span cursor, closed as a merge-wait span when
// the join finalizes.
type mergeTail struct {
	ver    uint8
	cursor int64
}

// atEntry accumulates the copies of one packet (§5.3, Figure 4: current
// count and received versions).
type atEntry struct {
	pid      uint64
	count    int
	versions [packet.MaxVersion + 1]*packet.Packet
	dropped  bool
	// prov is the provenance of the FIRST dropped tail: parallel
	// branches can each report a drop for one packet, but the packet
	// dies exactly once, so one cause must win deterministically
	// (arrival order at this merger).
	prov dropProv
	// firstNS is when the first tail arrived; finalize−firstNS is the
	// merge latency (how long copies waited in the Accumulating Table).
	firstNS int64
	// tails holds the arrival cursor of every sampled branch tail
	// (empty when the packet is unsampled).
	tails []mergeTail
}

// merger is one merger instance. The paper implements mergers as NFs so
// they can be instantiated/destroyed dynamically; here each instance is
// a goroutine with its own receive ring of merge items (which cannot
// fill, shard.admit) and a local Accumulating Table, fed by the merger
// agent's PID hash (shard.joinPush).
type merger struct {
	name   string // "merger-<id>" for trace events (shard via the span tag)
	rx     *ring.MPSC[mergeItem]
	ringHW *telemetry.Gauge // the ring's high-water mark
	batch  []mergeItem      // drain scratch (single consumer)
	at     map[atKey]*atEntry
	sh     *shard

	// Registry-backed per-instance metrics (labelled instance=<id>,
	// plus shard=<i> on a sharded server).
	processed *telemetry.Counter
	merged    *telemetry.Counter
	drops     *telemetry.Counter
	atSize    *telemetry.Gauge
	atHW      *telemetry.Gauge
	mergeLat  *telemetry.Histogram
}

func newMerger(id int, sh *shard) *merger {
	tel := sh.srv.tel
	inst := sh.labelShard([]telemetry.Label{telemetry.L("instance", strconv.Itoa(id))})
	return &merger{
		name:      "merger-" + strconv.Itoa(id),
		rx:        ring.NewMPSCOf[mergeItem](mergerQueue),
		ringHW:    tel.Gauge("nfp_merger_ring_high_water", inst...),
		batch:     make([]mergeItem, sh.srv.cfg.Burst),
		at:        make(map[atKey]*atEntry),
		sh:        sh,
		processed: tel.Counter("nfp_merger_processed_total", inst...),
		merged:    tel.Counter("nfp_merger_merged_total", inst...),
		drops:     tel.Counter("nfp_merger_drops_total", inst...),
		atSize:    tel.Gauge("nfp_merger_at_size", inst...),
		atHW:      tel.Gauge("nfp_merger_at_high_water", inst...),
		mergeLat:  tel.Histogram("nfp_merger_merge_latency_ns", inst...),
	}
}

// run is the merger goroutine body: it drains the receive ring until
// the server stops (Stop waits for conservation first, so it is empty).
func (m *merger) run() {
	srv := m.sh.srv
	drain(m.rx, m.batch, srv.cfg.SpinLimit, srv.stopped.Load, m.accept)
}

// accept handles one burst of items, updating the processed counter
// and the Accumulating Table gauges once per burst (the within-burst AT
// peak is still tracked exactly).
func (m *merger) accept(items []mergeItem) {
	m.processed.Add(uint64(len(items)))
	peak := len(m.at)
	for _, it := range items {
		m.handle(it)
		if len(m.at) > peak {
			peak = len(m.at)
		}
	}
	m.atSize.Set(int64(len(m.at)))
	m.atHW.SetMax(int64(peak))
}

func (m *merger) handle(item mergeItem) {
	key := atKey{pr: item.pr, join: item.join, pid: item.pkt.Meta.PID}
	e := m.at[key]
	if e == nil {
		e = &atEntry{pid: key.pid, firstNS: time.Now().UnixNano()}
		m.at[key] = e
	}
	e.count++
	e.versions[item.pkt.Meta.Version] = item.pkt
	if item.dropped {
		if !e.dropped {
			e.prov = item.prov
		}
		e.dropped = true
	}
	if m.sh.srv.tracer.Sampled(key.pid) {
		e.tails = append(e.tails, mergeTail{ver: item.pkt.Meta.Version, cursor: item.cursor})
	}

	spec := item.pr.plan.Joins[item.join]
	if e.count < spec.ExpectTails {
		return
	}
	delete(m.at, key)
	m.mergeLat.Record(time.Now().UnixNano() - e.firstNS)
	m.finalize(item.pr, spec, e)
}

// finalize completes one packet's join: reconcile drops, apply the
// merging operations to the base copy, release the other copies, and
// run the continuation — all against the packet's own generation
// runtime, so a packet injected before a reload finishes on the plan
// that admitted it.
func (m *merger) finalize(pr *planRuntime, spec JoinSpec, e *atEntry) {
	mid := pr.plan.MID
	base := e.versions[spec.BaseVersion]

	// Close every sampled tail's merge-wait span against one shared
	// finalize timestamp: each branch's wait in the Accumulating Table
	// is visible individually, and the shared end timestamp is where
	// the surviving base chain resumes — so the base chain still tiles
	// exactly (its own merge-wait ends where the merge span begins).
	var cursor int64
	if tr := m.sh.srv.tracer; tr != nil && len(e.tails) > 0 {
		cursor = time.Now().UnixNano()
		for _, tl := range e.tails {
			tr.RecordSpan(telemetry.TraceEvent{
				PID: e.pid, MID: mid, Ver: tl.ver,
				Stage: telemetry.StageMergeWait, Name: m.name,
				Join: spec.ID + 1, Begin: tl.cursor, TS: cursor,
				Shard: m.sh.spanID, Gen: pr.spanGen,
			})
		}
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
		for _, op := range spec.Ops {
			if err := applyMergeOp(base, op, &e.versions); err != nil {
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
	// Release every received copy except the base, which goes on through
	// the continuation, or carries the drop to the outer join or output.
	for v, pkt := range e.versions {
		if pkt != nil && uint8(v) != spec.BaseVersion {
			pkt.Free()
		}
	}
	one := [1]*packet.Packet{base}
	if e.dropped {
		m.drops.Add(1)
		m.sh.deliver(pr, spec.DropTo, one[:], true, e.prov, cursor)
		return
	}
	m.merged.Add(1)
	if cursor != 0 {
		// The merge span covers applying the merging operations; its
		// end is the base chain's ongoing cursor.
		now := time.Now().UnixNano()
		m.sh.srv.tracer.RecordSpan(telemetry.TraceEvent{
			PID: e.pid, MID: mid, Ver: base.Meta.Version,
			Stage: telemetry.StageMerge, Name: m.name,
			Join: spec.ID + 1, Begin: cursor, TS: now,
			Shard: m.sh.spanID, Gen: pr.spanGen,
		})
		cursor = now
	}
	m.sh.execBurst(pr, spec.Next, one[:], cursor)
}

// applyMergeOp applies one §5.3 merging operation to the base packet.
func applyMergeOp(base *packet.Packet, op graph.MergeOp, versions *[packet.MaxVersion + 1]*packet.Packet) error {
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
			copy(base.Buffer()[r.Off:r.Off+r.Len], srcBytes)
			// Address rewrites must keep the IP checksum valid.
			if op.DstField == packet.FieldSrcIP || op.DstField == packet.FieldDstIP ||
				op.DstField == packet.FieldTTL || op.DstField == packet.FieldIPHeader {
				base.Invalidate()
				refreshIP(base)
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
