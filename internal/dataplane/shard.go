package dataplane

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"nfp/internal/mempool"
	"nfp/internal/packet"
	"nfp/internal/ring"
	"nfp/internal/telemetry"
)

// shard is one replica of the whole dataplane (RSS-style flow
// sharding): its own microflow cache, plan runtimes with their rings
// and join tables, output channel and mempool partition. Injectors
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
	// out receives the shard's finished packets: the server output
	// channel, or the shard's own under Config.ShardedOutputs.
	out chan *packet.Packet

	// ingress counts packets dispatched to this shard, labelled
	// shard=<id> (nil, a no-op, when unsharded).
	ingress *telemetry.Counter
	// joinTails counts the tails this shard's joins accepted, whatever
	// their MID or generation (Stats.MergerLoad).
	joinTails *telemetry.Counter

	// The admission budget (admit): the pool partition's copy reserve and
	// the tails that may wait at joins, and what admitted packets hold of
	// both.
	room  budget
	held  atomic.Uint64
	freed *ring.Cond // wakes injectors parked at admission (settle)

	// The injector and every runtime read this header each burst: pad
	// it to two whole cache lines, so it shares none with whatever the
	// allocator puts next to it (TestShardLayout).
	_ [40]byte
}

// budget counts copy buffers (high half) and join tails (low half) in
// one word, so both are taken and given back by one atomic.
type budget uint64

func newBudget(copies, tails int) budget { return budget(copies)<<32 | budget(tails) }
func (b budget) copies() int             { return int(b >> 32) }
func (b budget) tails() int              { return int(uint32(b)) }

// labelShard appends the shard label to a label set when the server is
// sharded; single-shard servers keep every pre-sharding series name and
// label set bit-identical.
func (sh *shard) labelShard(labels []telemetry.Label) []telemetry.Label {
	if sh.srv.sharded() {
		return append(labels, telemetry.L("shard", strconv.Itoa(sh.id)))
	}
	return labels
}

// admit is the one admission rule (DESIGN.md §6): it sets aside, for the
// longest prefix of n packets of pr the budget covers, every copy buffer
// and join tail they can occupy (pr.weight each), and returns the prefix
// length. Live copies and outstanding tails then stay within room over
// every MID and generation on the shard: a copy allocation never comes
// back short, a plan never runs out of join frames (buildRuntime gives
// each the most packets admission lets it hold), nothing in the graph waits on
// anything upstream of it.
func (sh *shard) admit(pr *planRuntime, n int) int {
	for {
		held := budget(sh.held.Load())
		k := n
		if t := pr.weight.tails(); t > 0 {
			k = min(k, (sh.room.tails()-held.tails())/t)
		}
		if c := pr.weight.copies(); c > 0 {
			k = min(k, (sh.room.copies()-held.copies())/c)
		}
		if k <= 0 {
			return 0
		}
		if sh.held.CompareAndSwap(uint64(held), uint64(held)+uint64(k)*uint64(pr.weight)) {
			return k
		}
	}
}

// settle gives back the in-flight slots and the budget of n packets of
// pr, waking an injector parked at admission.
func (sh *shard) settle(pr *planRuntime, n int) {
	pr.inflight.Add(-int64(n))
	if pr.weight != 0 {
		sh.held.Add(-(uint64(n) * uint64(pr.weight)))
		sh.freed.Notify()
	}
}

// acquire resolves the live runtime of a MID and admits a prefix of n
// packets to it, at least one (all, when the plan weighs nothing). While
// the budget covers none the injector waits here, where nothing in
// flight depends on it. Each admitted packet holds an in-flight slot —
// the injector half of the reload drain protocol. The
// increment-then-check order against planRuntime.gone makes the race
// with a concurrent generation swap safe: if the reloader observed
// inflight == 0 after setting gone, this injector's increment must come
// later, so it sees gone, backs out, and re-resolves the map — which
// already publishes the successor generation. Returns nil only when the
// MID has no installed graph (graphs are replaced, never removed, so a
// retry cannot lose the MID).
func (sh *shard) acquire(mid uint32, n int) (pr *planRuntime, k int) {
	var spin ring.Spin
	for {
		if pr = (*sh.plans.Load())[mid]; pr == nil {
			return nil, 0
		}
		k = n
		if pr.weight != 0 {
			seen := sh.held.Load()
			if k = sh.admit(pr, n); k == 0 {
				moved := func() bool { return sh.held.Load() != seen }
				sh.backoff(&spin, func() { sh.freed.Park(moved) }, sh.srv.recAdmitID, pr.gen)
				continue
			}
		}
		pr.inflight.Add(int64(k))
		if !pr.gone.Load() {
			return pr, k
		}
		sh.settle(pr, k)
	}
}

// inject is the §5.1 classifier step for one run of packets bound to
// this shard, executed on the injecting goroutine: classify against the
// shard's microflow cache, then send the accepted packets into their
// graphs, one burst per MID per chunk (injectChunk). It returns the
// number accepted and stably partitions pkts like InjectBatch: rejects
// — unmatched, or classified to a MID with no installed graph — end up
// in pkts[n:], still owned by the caller.
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
	for i := 0; i < n; i += execChunk {
		sh.injectChunk(pkts[i:min(n, i+execChunk)])
	}
	return n
}

// injectChunk sends up to execChunk accepted packets into their graphs,
// each MID's as one burst in arrival order (a flow has one MID), MIDs in
// order of first appearance. It reads every MID first: a packet handed
// off is the dataplane's. acquire re-resolves the runtime per burst, or
// per admitted prefix, since a reload may swap the generation; graphs
// are replaced, never removed, so inject's nil-check stays valid.
func (sh *shard) injectChunk(pkts []*packet.Packet) {
	var mids [execChunk]uint32
	for i, pkt := range pkts {
		mids[i] = pkt.Meta.MID
	}
	var burst [execChunk]*packet.Packet
	var sent uint64 // bit i: pkts[i] is in an earlier burst
	for i := range pkts {
		if sent&(1<<i) != 0 {
			continue
		}
		mid, b := mids[i], burst[:0]
		for j := i; j < len(pkts); j++ {
			if mids[j] == mid {
				b = append(b, pkts[j])
				sent |= 1 << j
			}
		}
		for len(b) > 0 {
			pr, k := sh.acquire(mid, len(b))
			sh.injectBurst(pr, b[:k])
			b = b[k:]
		}
	}
}

// span records one span of a sampled packet, [begin, end] on stage st
// under name (the NF or "classifier"; none for the terminal spans). Out
// of line, so traced-path work never bloats a hot loop's code.
func (sh *shard) span(pr *planRuntime, pkt *packet.Packet, st telemetry.Stage, name string, begin, end int64) {
	sh.srv.tracer.RecordSpan(telemetry.TraceEvent{
		PID: pkt.Meta.PID, MID: pkt.Meta.MID, Ver: pkt.Meta.Version,
		Stage: st, Name: name, Begin: begin, TS: end, Shard: sh.spanID, Gen: pr.spanGen(),
	})
}

// injectBurst sends a burst of same-MID packets, admitted to pr via
// acquire, into their graph.
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
			// From the source's Ingress stamp when one is set (RecordSpan
			// clamps an unset or insane one), so ingress queueing is
			// attributed, to now — the cursor downstream spans chain from.
			sh.span(pr, pkt, telemetry.StageClassify, "classifier", pkt.Ingress, now)
		}
	}
	if pr.frames != nil {
		pr.frames.take(pkts)
	}
	sh.srv.injected.Add(uint64(len(pkts)))
	sh.execBurst(pr, pr.plan.Entry, pkts, now)
}

// execChunk sizes the hand-off scratch (copies, completed joins), kept
// on the caller's stack: an injector is an arbitrary goroutine.
const execChunk = 32

// execBurst is the one executor: it runs a forwarding-table dispatch
// list over a non-empty burst whose packets all carry the list's source
// version (a packet is a burst of one). A list that copies takes the
// buffers for ALL its copy dispatches with one reserved batch allocation
// per chunk, which admission set aside: a short grant is a bug, not a
// wait. cursor is shared by the burst: its sampled packets chain from
// the same amortized clock read.
func (sh *shard) execBurst(pr *planRuntime, ds []Dispatch, pkts []*packet.Packet, cursor int64) {
	nc := copiesIn(ds)
	if nc == 0 {
		sh.dispatch(pr, ds, pkts, nil, cursor)
		return
	}
	var bufs [packet.MaxVersion * execChunk]*packet.Packet
	for len(pkts) > 0 {
		n := min(len(pkts), execChunk)
		if got := sh.pool.AllocBatchReserved(bufs[:n*nc]); got < n*nc {
			panic(fmt.Sprintf("dataplane: %d of %d copies granted inside the admission budget (reserve %d, %d held)",
				got, n*nc, sh.room.copies(), budget(sh.held.Load()).copies()))
		}
		sh.dispatch(pr, ds, pkts[:n], bufs[:n*nc], cursor)
		pkts = pkts[n:]
	}
}

// dispatch walks a dispatch list over a burst. held collects the
// versions materialized so far as per-version slices of the burst,
// seeded with the incoming packets; bufs holds len(pkts) fresh buffers
// per copy dispatch, in list order. curs is each version's span-chain
// position (end timestamp of its previous span, 0 unsampled): copies
// fork their own chain off their source's, and every delivery carries
// its version's cursor forward.
func (sh *shard) dispatch(pr *planRuntime, ds []Dispatch, pkts, bufs []*packet.Packet, cursor int64) {
	var held [packet.MaxVersion + 1][]*packet.Packet
	var curs [packet.MaxVersion + 1]int64
	base := pkts[0].Meta.Version
	held[base], curs[base] = pkts, cursor
	for i := range ds {
		d := &ds[i]
		out, c := held[d.SrcVersion], curs[d.SrcVersion]
		if out == nil {
			panic(fmt.Sprintf("dataplane: dispatch references missing version %d", d.SrcVersion))
		}
		if d.NewVersion != 0 {
			cp := bufs[:len(pkts)]
			bufs = bufs[len(pkts):]
			c = sh.copyBurst(pr, d, out, cp, c)
			held[d.NewVersion], curs[d.NewVersion] = cp, c
			out = cp
		}
		for _, t := range d.Targets {
			sh.deliver(pr, t, out, false, dropProv{}, c)
		}
	}
}

// copyBurst materializes one copy dispatch: dst[i] becomes version
// d.NewVersion of src[i]. A burst holding a sampled packet reads the
// clock once: the shared timestamp ends every sampled copy span and is
// where the new version's chain begins (the return value).
func (sh *shard) copyBurst(pr *planRuntime, d *Dispatch, src, dst []*packet.Packet, cursor int64) int64 {
	s := sh.srv
	var bytes uint64
	for i, from := range src {
		if d.FullCopy {
			packet.FullCopy(from, dst[i], d.NewVersion)
		} else {
			packet.HeaderOnlyCopy(from, dst[i], d.NewVersion)
		}
		bytes += uint64(dst[i].Len())
	}
	s.copies.Add(uint64(len(src)))
	s.copiedB.Add(bytes)
	var now int64
	for _, from := range src {
		if s.tracer.Sampled(from.Meta.PID) {
			if now == 0 {
				now = time.Now().UnixNano()
			}
			s.tracer.RecordSpan(telemetry.TraceEvent{
				PID: from.Meta.PID, MID: from.Meta.MID, Ver: d.NewVersion,
				Stage: telemetry.StageCopy, Name: "copy", SrcVer: d.SrcVersion,
				Begin: cursor, TS: now, Shard: sh.spanID, Gen: pr.spanGen(),
			})
		}
	}
	if now != 0 {
		cursor = now
	}
	return cursor
}

// deliver hands a burst of packet references to a target — the one
// place a Target is resolved at run time. The burst shares one header:
// dropped marks every packet a drop intention (the references ride
// along so buffers can be reclaimed) with prov its provenance, and
// cursor is the span-chain position carried into the next stage: ring
// deliveries stash it for the consumer, join deliveries keep it in the
// tails' slots, and output closes the chain with the terminal span.
func (sh *shard) deliver(pr *planRuntime, t Target, pkts []*packet.Packet, dropped bool, prov dropProv, cursor int64) {
	switch t.Kind {
	case ToNode:
		sh.ringPush(pr, pr.owner[t.Node], pkts, cursor)
	case ToJoin:
		sh.joinPush(pr, t.Join, int(t.Tail), pkts, dropped, prov, cursor)
	case ToOutput:
		sh.emit(pr, pkts, dropped, prov, cursor)
	}
}

// release frees a burst of packets the graph is done with: under one
// lock when all are the shard's own partition's, as copies always are;
// each through its own owner otherwise (a source may allocate from any
// partition, a nil carrier comes from none).
func (sh *shard) release(pkts []*packet.Packet) {
	for _, pkt := range pkts {
		if pkt.Owner() != packet.Owner(sh.pool) {
			for _, pkt := range pkts {
				pkt.Free()
			}
			return
		}
	}
	sh.pool.FreeBatch(pkts)
}

// emit is the single terminal accounting point: exactly one terminal
// event per injected packet (copies die at joins, drop intentions
// resolve to one terminal drop), so attributing the drop cause here —
// after joins collapse parallel copies to one verdict — keeps the
// per-cause counters summing exactly to total drops. The shared
// counters, in-flight slots and budget (the packets' copies and tails
// died at the joins upstream) are settled once per burst, and
// only after the last buffer was freed or the last output send
// completed, so inflight == 0 — the reload drain condition — means every
// packet of the generation has fully surfaced, not merely been handed off.
func (sh *shard) emit(pr *planRuntime, pkts []*packet.Packet, dropped bool, prov dropProv, cursor int64) {
	s := sh.srv
	if pr.frames != nil {
		// Before the sends hand the packets away and settle gives back
		// their budget: an injector admitted against it finds them free.
		pr.frames.put(pkts)
	}
	for _, pkt := range pkts {
		// One clock read ends a sampled packet's last span and its
		// end-to-end latency, taken as the packet itself surfaces.
		if s.tracer.Sampled(pkt.Meta.PID) {
			now := time.Now().UnixNano()
			st := telemetry.StageOutput
			if dropped {
				st = telemetry.StageDrop
			} else if pkt.Ingress > 0 {
				pr.e2eLat.Record(now - pkt.Ingress)
			}
			sh.span(pr, pkt, st, "", cursor, now)
		}
		if dropped {
			sh.recordDrop(pr, prov, pkt, cursor)
		} else {
			sh.out <- pkt
		}
	}
	n := uint64(len(pkts))
	if dropped {
		sh.release(pkts)
		s.drops.Add(n)
		sh.dropCounter(pr, prov).Add(n)
	} else {
		s.outCount.Add(n)
	}
	pr.terminal.Add(n)
	sh.settle(pr, len(pkts))
}
