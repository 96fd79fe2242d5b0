package dataplane

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nfp/internal/graph"
	"nfp/internal/packet"
	"nfp/internal/telemetry"
)

// joinRT is one join of an installed plan on one shard (§5.3). The
// paper's merger keeps an Accumulating Table keyed by PID; here the key
// travels on the packet: its join frame (frames) indexes an entry that
// counts its tails and a slot per tail, so a tail writes its slot and
// counts itself in with one atomic add, and whichever goroutine's add
// completes the count finalizes the packet and sends it on
// (shard.joinPush). The paper's mergers are NF instances on cores of
// their own; here a join has no goroutine, ring, lock or table.
type joinRT struct {
	// entries[f] counts frame f's tails in; slots[k*len(entries)+f] is
	// what tail k of frame f handed in (tail-major, so each branch writes
	// a region of its own).
	entries []joinEntry
	slots   []joinSlot
	// Registry-backed series, labelled mid=<mid> and join=<j> (plus
	// shard=<i> on a sharded server): a reload's joins continue them.
	// atSize counts the open entries: those some but not all tails have
	// reached.
	processed *telemetry.Counter
	merged    *telemetry.Counter
	drops     *telemetry.Counter
	atSize    *telemetry.Gauge
	atHW      *telemetry.Gauge
	mergeLat  *telemetry.Histogram
}

// joinEntry counts one packet's tails in at one join (§5.3, Figure 4's
// current count).
type joinEntry struct {
	count atomic.Int32
	// drop is 1 + the index of the first tail to report a drop (0: none
	// has), set by compare-and-swap before that tail counts itself in:
	// the packet dies once, so the first drop to arrive names the cause.
	drop atomic.Int32
}

// joinSlot is what one tail hands its join: its packet (the shared base,
// a copy, or a dropped one), version (read where the packet is warm),
// verdict, the clock read of its pass (the earliest starts the merge
// latency) and span cursor (where its merge-wait span begins).
type joinSlot struct {
	pkt    *packet.Packet
	clock  int64
	cursor int64
	v      verdict
	ver    uint8
}

// frames hands out a plan runtime's join frames: one per packet
// admission lets the plan hold at once. injectBurst stamps a free index
// on each packet (Packet.Frame) while the injector still owns it, copies
// inherit it, and emit gives it back before settle returns the packet's
// budget — so an admitted packet always finds a free frame. Frame f is
// entry f and slots [k][f] of every join of the plan (joinRT): a tail
// finds its place by index, without a lookup or a lock. The free list
// itself is locked once per burst at each end.
type frames struct {
	mu   sync.Mutex
	free []uint16
}

func newFrames(bound int) *frames {
	fs := &frames{free: make([]uint16, bound)}
	for i := range fs.free {
		fs.free[i] = uint16(bound - 1 - i)
	}
	return fs
}

// take stamps a free frame on every packet. Admission proves there are
// enough: running out is a bug in that arithmetic, not a wait.
func (fs *frames) take(pkts []*packet.Packet) {
	fs.mu.Lock()
	n := len(fs.free) - len(pkts)
	if n < 0 {
		defer fs.mu.Unlock()
		panic(fmt.Sprintf("dataplane: join frames exhausted: %d wanted, %d free of the %d the admission budget lets in",
			len(pkts), n+len(pkts), cap(fs.free)))
	}
	for i, pkt := range pkts {
		pkt.Frame = fs.free[n+i]
	}
	fs.free = fs.free[:n]
	fs.mu.Unlock()
}

// put gives the packets' frames back.
func (fs *frames) put(pkts []*packet.Packet) {
	fs.mu.Lock()
	for _, pkt := range pkts {
		fs.free = append(fs.free, pkt.Frame)
	}
	fs.mu.Unlock()
}

// verdict is what the bases of one outgoing burst share: a drop
// intention and its provenance, or neither.
type verdict struct {
	dropped bool
	prov    dropProv
}

// joinOut is what one pass over a burst of tails completed, in
// completion order: each completed frame, its finalized base with its
// verdict, and the copies it spent (base k's are spent[ends[k-1]:ends[k]]).
// It lives on the stack of the goroutine that delivered the tails.
type joinOut struct {
	frames   [execChunk]uint16
	bases    [execChunk]*packet.Packet
	verdicts [execChunk]verdict
	ends     [execChunk]uint8
	spent    [execChunk]*packet.Packet
	n, ns    int
}

// joinPush delivers a burst of tails from branch k to join j of pr: it
// counts them in (accept), finalizes the packets they complete and
// sends them on (joinOn), a pass at a time. A continuation that reaches
// another join completes that one on this goroutine, one level per
// nesting depth.
//
// The tails carry the packets' OWN generation runtime, whose frames are
// theirs alone: across a reload each packet finalizes against the plan
// that admitted it.
func (sh *shard) joinPush(pr *planRuntime, j, k int, pkts []*packet.Packet, dropped bool, prov dropProv, cursor int64) {
	jr, spec := &pr.joins[j], &pr.plan.Joins[j]
	sh.joinTails.Add(uint64(len(pkts)))
	jr.processed.Add(uint64(len(pkts)))
	var out joinOut
	for len(pkts) > 0 {
		out.n, out.ns = 0, 0
		n := accept(jr, spec, k, pkts, verdict{dropped, prov}, cursor, &out)
		pkts = pkts[n:]
		if out.n > 0 {
			// Read after every add that completed a packet: no earlier than
			// any slot's clock or cursor, so it ends every merge latency and
			// merge-wait span this pass closes.
			now := time.Now().UnixNano()
			sh.finalize(pr, jr, spec, &out, now)
			sh.joinOn(pr, jr, spec, &out, now)
		}
	}
}

// accept writes tail k of each packet into its frame's slot and counts
// it in, until the tails run out or out could not hold one more
// completed packet, and returns how many it took; out.frames lists the
// frames whose count it completed. One clock read per pass stamps the
// slots; the gauges move once per pass.
func accept(jr *joinRT, spec *JoinSpec, k int, pkts []*packet.Packet, v verdict, cursor int64, out *joinOut) int {
	now := time.Now().UnixNano()
	bound, copies, expect := len(jr.entries), len(spec.Versions)-1, int32(spec.ExpectTails)
	slots := jr.slots[k*bound : (k+1)*bound]
	opened, spent, i := 0, 0, 0
	for ; i < len(pkts) && out.n < len(out.frames) && spent+copies <= len(out.spent); i++ {
		pkt := pkts[i]
		f := pkt.Frame
		slots[f] = joinSlot{pkt: pkt, clock: now, cursor: cursor, v: v, ver: pkt.Meta.Version}
		e := &jr.entries[f]
		if v.dropped {
			e.drop.CompareAndSwap(0, int32(k)+1)
		}
		c := e.count.Add(1)
		if c == 1 {
			opened++
		}
		if c == expect {
			out.frames[out.n] = f
			out.n++
			spent += copies
		}
	}
	if opened > 0 {
		jr.atSize.Add(int64(opened))
		jr.atHW.SetMax(jr.atSize.Value())
	}
	return i
}

// finalize completes the packets one pass counted in: from each frame's
// slots it records a sampled packet's merge latency and merge-wait spans,
// reconciles drops and gathers the base, its verdict and the join's
// other versions into out, and then readies the entry for the frame's
// next packet.
func (sh *shard) finalize(pr *planRuntime, jr *joinRT, spec *JoinSpec, out *joinOut, now int64) {
	mid, bound, tr := pr.plan.MID, len(jr.entries), sh.srv.tracer
	for i, f := range out.frames[:out.n] {
		e := &jr.entries[f]
		var versions [packet.MaxVersion + 1]*packet.Packet
		first := now
		for k := 0; k < spec.ExpectTails; k++ {
			s := &jr.slots[k*bound+int(f)]
			versions[s.ver] = s.pkt
			first = min(first, s.clock)
		}
		var v verdict
		if d := e.drop.Load(); d != 0 {
			v = jr.slots[int(d-1)*bound+int(f)].v
		}
		e.count.Store(0)
		e.drop.Store(0)

		// A sampled packet records its merge latency, as it does its
		// end-to-end latency, and closes every tail's merge-wait span
		// against the one clock read: each branch's wait at the join is
		// visible individually, and the shared end timestamp is where the
		// surviving base chain resumes — so the base chain still tiles
		// exactly (its own merge-wait ends where the merge span begins).
		if tr != nil && tr.Sampled(jr.slots[f].pkt.Meta.PID) {
			jr.mergeLat.Record(now - first)
			for k := 0; k < spec.ExpectTails; k++ {
				s := &jr.slots[k*bound+int(f)]
				tr.RecordSpan(telemetry.TraceEvent{
					PID: s.pkt.Meta.PID, MID: mid, Ver: s.ver,
					Stage: telemetry.StageMergeWait, Name: "merger",
					Join: spec.ID + 1, Begin: s.cursor, TS: now,
					Shard: sh.spanID, Gen: pr.spanGen(),
				})
			}
		}

		base := versions[spec.BaseVersion]
		switch {
		case v.dropped && base == nil:
			// The base never arrived (its own branch dropped it and the
			// buffer came through as a dropped tail under the base version —
			// or the entry is inconsistent). Synthesize a nil carrier for
			// propagation, keeping the PID so trace spans of the drop stay
			// attributed to the packet, and the frame, which emit gives back.
			base = packet.NewNil(packet.Meta{MID: mid, PID: jr.slots[f].pkt.Meta.PID, Version: spec.BaseVersion})
			base.Frame = f
		case base == nil:
			// A non-dropped packet must always include its base version;
			// anything else is a plan bug worth crashing loudly on.
			panic(fmt.Sprintf("dataplane: join %d of mid %d completed without base version %d",
				spec.ID, mid, spec.BaseVersion))
		}
		out.bases[i], out.verdicts[i] = base, v
		// Every received copy except the base is spent (a copy this stage
		// made, out of the shard's partition: the version that entered the
		// stage is its join's base, compilePar). Only the join's own
		// versions can arrive (spec.Versions, base first).
		for _, ver := range spec.Versions[1:] {
			if pkt := versions[ver]; pkt != nil {
				out.spent[out.ns] = pkt
				out.ns++
			}
		}
		out.ends[i] = uint8(out.ns)
	}
	jr.atSize.Add(-int64(out.n))
}

// joinOn finishes what one pass completed: the merging operations of
// every merged base, then the spent copies back to the pool — before any
// base goes on, since emit settles a packet's budget on the
// understanding that every buffer it held is free again, and an injector
// waiting at admission allocates against that budget the moment it is
// settled — and then the bases, in completion order, in runs of at most
// Burst that share a verdict.
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
// (the finisher's clock read) for a drop, or the end of the merge span — one
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
					Shard: sh.spanID, Gen: pr.spanGen(),
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
