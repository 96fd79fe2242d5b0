package dataplane

import (
	"fmt"
	"sync"
	"time"

	"nfp/internal/graph"
	"nfp/internal/packet"
	"nfp/internal/telemetry"
)

// joinRT is one join of an installed plan on one shard (§5.3): its
// Accumulating Table and the lock that orders the goroutines delivering
// its tails. The paper runs its mergers as NF instances on cores of
// their own, fed by an agent that hashes the PID across them; here every
// branch is a goroutine in one address space, so whichever goroutine
// delivers a packet's last tail finalizes the packet and sends it on
// (shard.joinPush). A join has no goroutine, ring or instance count.
type joinRT struct {
	mu sync.Mutex
	at *atTable
	// Registry-backed series, labelled mid=<mid> and join=<j> (plus
	// shard=<i> on a sharded server): a reload's joins continue them.
	processed *telemetry.Counter
	merged    *telemetry.Counter
	drops     *telemetry.Counter
	atSize    *telemetry.Gauge
	atHW      *telemetry.Gauge
	mergeLat  *telemetry.Histogram
}

// verdict is what the bases of one outgoing burst share: a drop
// intention and its provenance, or neither.
type verdict struct {
	dropped bool
	prov    dropProv
}

// joinOut is what one pass over a join's table completed, in completion
// order: each finalized base with its verdict, and the copies it spent
// (base k's are spent[ends[k-1]:ends[k]]). It lives on the stack of the
// goroutine that delivered the tails.
type joinOut struct {
	bases    [execChunk]*packet.Packet
	verdicts [execChunk]verdict
	ends     [execChunk]uint8
	spent    [execChunk]*packet.Packet
	n, ns    int
}

// joinPush delivers a burst of tails to join j of pr. It holds the
// join's lock only to update the Accumulating Table, which copies the
// packets these tails complete out into scratch (accept); then, unlocked,
// it merges them, gives their spent copies back and sends them on
// (joinOn). A continuation that reaches another join completes that one
// on this goroutine, one level per nesting depth. Nothing that can block
// runs under the lock: a continuation may wait on a full ring, and every
// branch delivering to this join would wait behind it.
//
// The tails carry the packets' OWN generation runtime, whose table is
// theirs alone: across a reload each packet finalizes against the plan
// that admitted it.
func (sh *shard) joinPush(pr *planRuntime, j int, pkts []*packet.Packet, dropped bool, prov dropProv, cursor int64) {
	jr, spec := &pr.joins[j], &pr.plan.Joins[j]
	sh.joinTails.Add(uint64(len(pkts)))
	jr.processed.Add(uint64(len(pkts)))
	var out joinOut
	for len(pkts) > 0 {
		out.n, out.ns = 0, 0
		jr.mu.Lock()
		// One clock read per pass: the birth stamp of its new entries, the
		// end of every merge latency and merge-wait span it closes. Read
		// under the lock, so it is no earlier than any tail an earlier
		// pass took or any such pass's own read.
		now := time.Now().UnixNano()
		k := sh.accept(pr, jr, spec, pkts, verdict{dropped, prov}, cursor, now, &out)
		jr.mu.Unlock()
		pkts = pkts[k:]
		sh.joinOn(pr, jr, spec, &out, now)
	}
}

// accept counts tails into the join's table, under its lock, until they
// run out or out could not hold one more completed packet, and returns
// how many it took. The table gauges move once per pass (the within-pass
// peak is still exact).
func (sh *shard) accept(pr *planRuntime, jr *joinRT, spec *JoinSpec, pkts []*packet.Packet, v verdict, cursor, now int64, out *joinOut) int {
	t, tr := jr.at, sh.srv.tracer
	peak, copies := t.live, len(spec.Versions)-1
	k := 0
	for ; k < len(pkts) && out.n < len(out.bases) && out.ns+copies <= len(out.spent); k++ {
		pkt := pkts[k]
		pid, ver := pkt.Meta.PID, pkt.Meta.Version
		i, fresh := t.at(pid)
		e := &t.slots[i]
		if fresh {
			e.firstNS = now
			peak = max(peak, t.live)
		}
		if tr.Sampled(pid) {
			t.noteTail(e, ver, cursor)
		}
		e.count++
		e.versions[ver] = pkt
		if v.dropped && !e.dropped {
			e.dropped, e.prov = true, v.prov
		}
		if int(e.count) == spec.ExpectTails {
			jr.mergeLat.Record(now - e.firstNS)
			sh.finalize(pr, spec, t, e, now, out)
			t.remove(i)
		}
	}
	jr.atSize.Set(int64(t.live))
	jr.atHW.SetMax(int64(peak))
	return k
}

// finalize completes one packet's join, under the lock: it closes the
// packet's merge-wait spans, reconciles drops, and copies the base, its
// verdict and the join's other versions out of the entry, whose slot the
// caller frees next.
func (sh *shard) finalize(pr *planRuntime, spec *JoinSpec, t *atTable, e *atEntry, now int64, out *joinOut) {
	mid := pr.plan.MID
	base := e.versions[spec.BaseVersion]

	// Close every tail's merge-wait span against the pass's clock read:
	// each branch's wait in the Accumulating Table is visible
	// individually, and the shared end timestamp is where the surviving
	// base chain resumes — so the base chain still tiles exactly (its own
	// merge-wait ends where the merge span begins).
	if tr := sh.srv.tracer; tr.Sampled(e.pid) {
		for n := e.firstTail; n != 0; n = t.tails[n-1].next {
			tail := &t.tails[n-1]
			tr.RecordSpan(telemetry.TraceEvent{
				PID: e.pid, MID: mid, Ver: tail.ver,
				Stage: telemetry.StageMergeWait, Name: "merger",
				Join: spec.ID + 1, Begin: tail.cursor, TS: now,
				Shard: sh.spanID, Gen: pr.spanGen,
			})
		}
		t.dropTails(e)
	}

	switch {
	case e.dropped && base == nil:
		// The base never arrived (its own branch dropped it and the
		// buffer came through as a dropped tail under the base version —
		// or the entry is inconsistent). Synthesize a nil carrier for
		// propagation, keeping the PID so trace spans of the drop stay
		// attributed to the packet.
		base = packet.NewNil(packet.Meta{MID: mid, PID: e.pid, Version: spec.BaseVersion})
	case base == nil:
		// A non-dropped packet must always include its base version;
		// anything else is a plan bug worth crashing loudly on.
		panic(fmt.Sprintf("dataplane: join %d of mid %d completed without base version %d",
			spec.ID, mid, spec.BaseVersion))
	}
	out.bases[out.n], out.verdicts[out.n] = base, verdict{e.dropped, e.prov}
	// Every received copy except the base is spent (a copy this stage
	// made, out of the shard's partition: the version that entered the
	// stage is its join's base, compilePar). Only the join's own versions
	// can arrive (spec.Versions, base first).
	for _, v := range spec.Versions[1:] {
		if pkt := e.versions[v]; pkt != nil {
			out.spent[out.ns] = pkt
			out.ns++
		}
	}
	out.ends[out.n] = uint8(out.ns)
	out.n++
}

// joinOn finishes what one pass completed, off the lock: the merging
// operations of every merged base, then the spent copies back to the
// pool — before any base goes on, since emit settles a packet's budget
// on the understanding that every buffer it held is free again, and an
// injector waiting at admission allocates against that budget the moment
// it is settled — and then the bases, in completion order, in runs of at
// most Burst that share a verdict.
func (sh *shard) joinOn(pr *planRuntime, jr *joinRT, spec *JoinSpec, out *joinOut, now int64) {
	if len(spec.Ops) > 0 {
		// A merged packet holds every version of its join, so each one
		// overwrites all of the previous one's.
		var versions [packet.MaxVersion + 1]*packet.Packet
		from := 0
		for k, base := range out.bases[:out.n] {
			copies := out.spent[from:out.ends[k]]
			from = int(out.ends[k])
			if out.verdicts[k].dropped {
				continue
			}
			versions[spec.BaseVersion] = base
			for _, c := range copies {
				versions[c.Meta.Version] = c
			}
			for i := range spec.Ops {
				if err := applyMergeOp(base, &spec.Ops[i], &versions); err != nil {
					// A malformed copy (e.g. truncated beyond the op's
					// field) degrades to passing the base through
					// unmodified; the operator sees the count.
					sh.srv.mergeErrs.Add(1)
					break
				}
			}
			// Merge ops pulled bytes from (possibly header-only) copies, so
			// the base's L4 checksum is stale. NFs maintain the checksum
			// after their own writes (the well-behaved-middlebox contract),
			// so recomputing over the merged content reproduces exactly the
			// checksum sequential execution would have left.
			base.UpdateL4Checksum()
		}
	}
	sh.pool.FreeBatch(out.spent[:out.ns])
	for i := 0; i < out.n; {
		v, end := out.verdicts[i], i+1
		for end < out.n && end-i < sh.srv.cfg.Burst && out.verdicts[end] == v {
			end++
		}
		sh.joinRun(pr, jr, spec, v, out.bases[i:end], now)
		i = end
	}
}

// joinRun sends one run of finalized bases on: down the join's drop
// route, or through its continuation. A run holding a sampled packet
// carries the span cursor its chain resumes from: the end of merge-wait
// (the pass's clock read) for a drop, or the end of the merge span — one
// more read, after the merging operations — for a merge.
func (sh *shard) joinRun(pr *planRuntime, jr *joinRT, spec *JoinSpec, v verdict, bases []*packet.Packet, now int64) {
	tr := sh.srv.tracer
	var cursor int64
	if tr != nil {
		for _, base := range bases {
			if tr.Sampled(base.Meta.PID) {
				cursor = now
				break
			}
		}
	}
	if v.dropped {
		jr.drops.Add(uint64(len(bases)))
		sh.deliver(pr, spec.DropTo, bases, true, v.prov, cursor)
		return
	}
	jr.merged.Add(uint64(len(bases)))
	if cursor != 0 {
		cursor = time.Now().UnixNano()
		for _, base := range bases {
			if tr.Sampled(base.Meta.PID) {
				tr.RecordSpan(telemetry.TraceEvent{
					PID: base.Meta.PID, MID: pr.plan.MID, Ver: base.Meta.Version,
					Stage: telemetry.StageMerge, Name: "merger",
					Join: spec.ID + 1, Begin: now, TS: cursor,
					Shard: sh.spanID, Gen: pr.spanGen,
				})
			}
		}
	}
	sh.execBurst(pr, spec.Next, bases, cursor)
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
		// The AH header is the one header an NF adds or removes (nfa's
		// only add/rm field), and it has one place, after the IP header,
		// where the compiler anchors it.
		if op.SrcField != packet.FieldAH {
			return fmt.Errorf("merge: add of %v: only an AH header is added", op.SrcField)
		}
		src := versions[op.SrcVersion]
		if src == nil {
			return fmt.Errorf("merge: add source v%d missing", op.SrcVersion)
		}
		srcBytes := src.FieldBytes(op.SrcField)
		if srcBytes == nil {
			return fmt.Errorf("merge: source field %v missing in v%d", op.SrcField, op.SrcVersion)
		}
		return base.InsertAH(srcBytes)

	case graph.OpRemove:
		if op.DstField != packet.FieldAH {
			return fmt.Errorf("merge: remove of %v: only an AH header is removed", op.DstField)
		}
		return base.RemoveAH()
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
