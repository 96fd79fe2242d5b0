package main

import (
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"nfp/internal/dataplane"
	"nfp/internal/mempool"
	"nfp/internal/nf"
	"nfp/internal/nfa"
	"nfp/internal/packet"
	"nfp/internal/ring"
	"nfp/internal/telemetry"
)

// timedNFs are the NF types whose busy time the traced run reports.
var timedNFs = []string{nfa.NFL3Fwd, nfa.NFVPN, nfa.NFIDS, nfa.NFMonitor, nfa.NFFirewall, nfa.NFLB}

// nfClock accumulates the time spent inside one NF type's Process
// calls, over all of its instances.
type nfClock struct {
	busyNS atomic.Int64
	pkts   atomic.Int64
}

// nfClocks maps NF type name to its clock; the key set is fixed at
// creation, so runtimes only ever read the map.
type nfClocks map[string]*nfClock

func newNFClocks() nfClocks {
	c := nfClocks{}
	for _, n := range timedNFs {
		c[n] = &nfClock{}
	}
	return c
}

// timedNF times the scalar path of the NF it wraps.
type timedNF struct {
	nf.NF
	clk *nfClock
}

func (t *timedNF) Process(p *packet.Packet) nf.Verdict {
	t0 := time.Now()
	v := t.NF.Process(p)
	t.clk.busyNS.Add(int64(time.Since(t0)))
	t.clk.pkts.Add(1)
	return v
}

// timedBatchNF also forwards the batch path. Without it the runtime
// would see no nf.BatchProcessor, fall back to per-packet Process and
// the traced run would measure a different program.
type timedBatchNF struct {
	timedNF
	batch nf.BatchProcessor
}

func (t *timedBatchNF) ProcessBatch(pkts []*packet.Packet, verdicts []nf.Verdict) {
	t0 := time.Now()
	t.batch.ProcessBatch(pkts, verdicts)
	t.clk.busyNS.Add(int64(time.Since(t0)))
	t.clk.pkts.Add(int64(len(pkts)))
}

// wrap returns inst behind a timing wrapper that offers the batch path
// exactly when inst does. NF types without a clock run unwrapped.
func (c nfClocks) wrap(inst nf.NF) nf.NF {
	clk := c[inst.Name()]
	if clk == nil {
		return inst
	}
	t := timedNF{NF: inst, clk: clk}
	if b, ok := inst.(nf.BatchProcessor); ok {
		return &timedBatchNF{timedNF: t, batch: b}
	}
	return &t
}

// reset zeroes every clock. Call it only while no NF is running.
func (c nfClocks) reset() {
	for _, clk := range c {
		clk.busyNS.Store(0)
		clk.pkts.Store(0)
	}
}

// busyNS is the total NF busy time since the last reset.
func (c nfClocks) busyNS() int64 {
	var n int64
	for _, clk := range c {
		n += clk.busyNS.Load()
	}
	return n
}

// cpuNS is the process's user+system CPU time.
func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// heapLiveMB forces a collection and returns the live heap.
func heapLiveMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// probe is a reading of every cumulative counter the per-layer metrics
// are differences of.
type probe struct {
	at                      time.Time
	st                      dataplane.Stats
	mem                     runtime.MemStats
	cpuNS                   int64
	hits, misses, evictions uint64
	waitNS, buildNS         int64
	sent                    uint64
}

func (r *rig) probe() probe {
	reg := r.srv.Telemetry()
	p := probe{
		at:        time.Now(),
		st:        r.srv.Stats(),
		cpuNS:     cpuNS(),
		hits:      reg.Counter("nfp_classifier_cache_hits_total").Value(),
		misses:    reg.Counter("nfp_classifier_cache_misses_total").Value(),
		evictions: reg.Counter("nfp_classifier_cache_evictions_total").Value(),
		waitNS:    r.waitNS,
		buildNS:   r.buildNS,
		sent:      r.sent,
	}
	runtime.ReadMemStats(&p.mem)
	return p
}

// ratio is a/b, and 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterMetrics turns two probes around a throughput phase into the
// per-layer metrics that are counter differences.
func counterMetrics(m map[string]float64, a, b probe) {
	pkts := float64(b.sent - a.sent)
	lookups := float64(b.hits-a.hits) + float64(b.misses-a.misses)
	m["classifier.hit_ratio"] = ratio(float64(b.hits-a.hits), lookups)
	m["classifier.evictions_per_pkt"] = ratio(float64(b.evictions-a.evictions), pkts)

	m["dataplane.copies_per_pkt"] = ratio(float64(b.st.Copies-a.st.Copies), pkts)
	m["dataplane.copied_bytes_per_pkt"] = ratio(float64(b.st.CopiedBytes-a.st.CopiedBytes), pkts)
	var items, busiest float64
	for i := range b.st.MergerLoad {
		d := float64(b.st.MergerLoad[i] - a.st.MergerLoad[i])
		items += d
		busiest = max(busiest, d)
	}
	m["dataplane.merger_items_per_pkt"] = ratio(items, pkts)
	m["dataplane.merger_imbalance"] = ratio(busiest, items/float64(len(b.st.MergerLoad)))
	m["dataplane.inject_wait_ns_per_pkt"] = ratio(float64(b.waitNS-a.waitNS), pkts)

	allocs := float64(b.st.Pool.Allocs - a.st.Pool.Allocs)
	fails := float64(b.st.Pool.Failures - a.st.Pool.Failures)
	m["mempool.alloc_fail_ratio"] = ratio(fails, allocs+fails)

	m["runtime.cpu_ns_per_pkt"] = ratio(float64(b.cpuNS-a.cpuNS), pkts)
	m["runtime.allocs_per_pkt"] = ratio(float64(b.mem.Mallocs-a.mem.Mallocs), pkts)
	m["runtime.alloc_bytes_per_pkt"] = ratio(float64(b.mem.TotalAlloc-a.mem.TotalAlloc), pkts)
	m["runtime.gc_cycles"] = float64(b.mem.NumGC - a.mem.NumGC)
	m["runtime.gc_pause_ms_total"] = float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e6
	m["gen.build_share"] = ratio(float64(b.buildNS-a.buildNS), float64(b.at.Sub(a.at)))
}

// spanMetrics decomposes every sampled packet that entered at or after
// since into stage durations and reports each stage's median, plus the
// share of sampled packets whose span chain was incomplete (head
// evicted from the tracer ring, or still in flight).
func spanMetrics(m map[string]float64, events []telemetry.TraceEvent, since int64) {
	groups, truncated := telemetry.GroupEvents(events)
	var classify, ringWait, service, mergeWait, merge, output []float64
	incomplete := truncated
	for _, spans := range groups {
		if spans[0].Begin < since {
			continue
		}
		at, ok := telemetry.Decompose(spans)
		if !ok {
			incomplete++
			continue
		}
		classify = append(classify, float64(at.Classify))
		ringWait = append(ringWait, float64(at.RingWait))
		service = append(service, float64(at.Service))
		mergeWait = append(mergeWait, float64(at.MergeWait))
		merge = append(merge, float64(at.Merge))
		output = append(output, float64(at.Output))
	}
	m["dataplane.span_classify_ns"] = median(classify)
	m["dataplane.span_ring_wait_ns"] = median(ringWait)
	m["dataplane.span_service_ns"] = median(service)
	m["dataplane.span_merge_wait_ns"] = median(mergeWait)
	m["dataplane.span_merge_ns"] = median(merge)
	m["dataplane.span_output_ns"] = median(output)
	m["trace.incomplete_ratio"] = ratio(float64(incomplete), float64(incomplete+len(classify)))
	m["trace.span_samples"] = float64(len(classify))
}

// isolatedBatches is how many bursts each isolated layer loop runs.
const isolatedBatches = 20000

// perPkt times fn over isolatedBatches bursts and returns nanoseconds
// per packet.
func perPkt(fn func()) float64 {
	t0 := time.Now()
	for i := 0; i < isolatedBatches; i++ {
		fn()
	}
	return float64(time.Since(t0)) / (isolatedBatches * burstLen)
}

// isolatedMetrics times single layers alone, through their public
// calls, on the workload's own packets and rule table: no other
// goroutine runs, so these are pure per-operation costs with warm
// caches — the floor a layer's share of the loaded path can shrink to.
func isolatedMetrics(m map[string]float64, w *workload, tr *traffic) {
	pool := mempool.New(4*burstLen, 2048)
	var a, b [burstLen]*packet.Packet

	m["mempool.alloc_free_ns_per_pkt"] = perPkt(func() {
		pool.FreeBatch(a[:pool.AllocBatch(a[:])])
	})

	pool.AllocBatch(a[:])
	pool.AllocBatch(b[:])
	spsc := ring.New(512)
	m["ring.enq_deq_ns_per_pkt"] = perPkt(func() {
		spsc.EnqueueBatch(a[:])
		spsc.DequeueBatch(a[:])
	})
	mpsc := ring.NewMPSC(512)
	m["ring.mpsc_enq_deq_ns_per_pkt"] = perPkt(func() {
		mpsc.EnqueueBatch(a[:])
		mpsc.DequeueBatch(a[:])
	})

	// Packet operations on the workload's size mix. Each burst is built,
	// parsed and copied in turn; the four clocks tick per stage.
	cur := tr.cursor()
	var build, parse, hdrCopy, fullCopy time.Duration
	for i := 0; i < isolatedBatches; i++ {
		t0 := time.Now()
		for _, p := range a {
			packet.BuildInto(p, cur.next())
		}
		t1 := time.Now()
		for _, p := range a {
			_ = p.Parse() // built just above; cannot fail
		}
		t2 := time.Now()
		for j, p := range a {
			packet.HeaderOnlyCopy(p, b[j], 2)
		}
		t3 := time.Now()
		for j, p := range a {
			packet.FullCopy(p, b[j], 2)
		}
		build += t1.Sub(t0)
		parse += t2.Sub(t1)
		hdrCopy += t3.Sub(t2)
		fullCopy += time.Since(t3)
	}
	const ops = isolatedBatches * burstLen
	m["packet.build_ns_per_pkt"] = float64(build) / ops
	m["packet.parse_ns_per_pkt"] = float64(parse) / ops
	m["packet.header_copy_ns_per_pkt"] = float64(hdrCopy) / ops
	m["packet.full_copy_ns_per_pkt"] = float64(fullCopy) / ops

	// Classifier on the workload's rule table, through a server that is
	// never started. Hit: one burst of established flows classified over
	// and over. Miss: never-seen 5-tuples, so every lookup walks the
	// rules and installs a cache entry. Packets are rebuilt (untimed)
	// before each call because classification includes the parse.
	srv := dataplane.New(dataplane.Config{PoolSize: burstLen})
	w.installRules(srv.Classifier())
	var hitSpecs [burstLen]packet.BuildSpec
	for i := range hitSpecs {
		hitSpecs[i] = tr.flows[i%len(tr.flows)].spec(64)
	}
	var hit, miss time.Duration
	// A miss behind padRules rules costs microseconds; fewer batches
	// keep the loop inside its time budget.
	missBatches := isolatedBatches / (1 + w.padRules/16)
	for i := 0; i < isolatedBatches; i++ {
		for j, p := range a {
			packet.BuildInto(p, hitSpecs[j])
		}
		t0 := time.Now()
		srv.Classifier().ClassifyBatch(a[:])
		hit += time.Since(t0)
	}
	for i := 0; i < missBatches; i++ {
		for j, p := range a {
			packet.BuildInto(p, tr.fresh(uint32(i*burstLen+j)).spec(64))
		}
		t0 := time.Now()
		srv.Classifier().ClassifyBatch(a[:])
		miss += time.Since(t0)
	}
	m["classifier.hit_ns_per_pkt"] = float64(hit) / ops
	m["classifier.miss_ns_per_pkt"] = float64(miss) / float64(missBatches*burstLen)
}
