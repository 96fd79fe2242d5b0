package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"nfp/internal/dataplane"
	"nfp/internal/graph"
	"nfp/internal/mempool"
	"nfp/internal/nf"
	"nfp/internal/packet"
	"nfp/internal/telemetry"
	"nfp/internal/telemetry/flightrec"
)

const (
	// burstLen is the injector's burst: DPDK's canonical 32, also the
	// dataplane's default burst.
	burstLen = 32
	// window is the length of one throughput window: long enough to hold
	// a whole GC cycle of the stateful workloads (about 0.45 s) and two or
	// three reloads of fwd64_reconfig, so the best window still pays for
	// both. Throughput is the best window's rate.
	window = 500 * time.Millisecond
	// latencySlice is the length of one slice of a one-burst phase. A
	// latency percentile is the best slice's: the shorter the slice, the
	// likelier a run holds one the host left alone, and an eighth of a
	// second still gives the slowest workload thousands of samples.
	// README.md has the measurements behind both choices.
	latencySlice = 125 * time.Millisecond
	// samplesPerSecond sizes the latency sample buffer per measured
	// second (uint32 nanoseconds each): twice what the fastest workload
	// produces on the seed commit. Samples beyond it are counted, not
	// kept.
	samplesPerSecond = 1 << 20
)

// benchConfig is the server every end-to-end number is measured on:
// only the pool is sized, every other field keeps the default a user
// gets.
func benchConfig() dataplane.Config { return dataplane.Config{PoolSize: 4096} }

// setupTimes splits one set-up by layer.
type setupTimes struct {
	compile, addGraph, start time.Duration
}

// Collector modes.
const (
	colCount int32 = iota
	colLatency
	colDigest
)

// collector is the single consumer of Server.Output: it frees every
// packet back to the pool and, depending on the mode, timestamps or
// fingerprints it first. Plain fields are written by the injecting
// goroutine only while no packet is in flight, and read by it only after
// recv says the packets that changed them have all arrived.
type collector struct {
	out  <-chan *packet.Packet
	pool *mempool.Pool
	mode atomic.Int32
	recv atomic.Uint64 // outputs seen
	done chan struct{}

	samples []uint32 // ingress-to-output nanoseconds, colLatency only
	unkept  uint64   // samples that found the buffer full
	dig     digest   // colDigest only
}

func (c *collector) run() {
	defer close(c.done)
	free := make([]*packet.Packet, 0, burstLen)
	flush := func() {
		if len(free) > 0 {
			c.pool.FreeBatch(free)
			free = free[:0]
		}
	}
	for {
		var p *packet.Packet
		var ok bool
		select {
		case p, ok = <-c.out:
		default:
			// Nothing queued: hand the buffers back before blocking, or
			// a closed-loop injector waiting on the pool starves.
			flush()
			p, ok = <-c.out
		}
		if !ok {
			flush()
			return
		}
		switch c.mode.Load() {
		case colLatency:
			d := time.Now().UnixNano() - p.Ingress
			switch {
			case len(c.samples) == cap(c.samples):
				c.unkept++
			default:
				c.samples = append(c.samples, uint32(min(max(d, 0), math.MaxUint32)))
			}
		case colDigest:
			c.dig.add(p)
		}
		free = append(free, p)
		if len(free) == cap(free) {
			flush()
		}
		c.recv.Add(1)
	}
}

// rig is one started server with its traffic source (the calling
// goroutine) and its collector goroutine.
type rig struct {
	w       *workload
	cur     cursor
	srv     *dataplane.Server
	graphs  []graph.Node
	provide func(shard int, node graph.NF) nf.NF
	drops   *telemetry.Counter
	col     collector
	batch   [burstLen]*packet.Packet

	sent     uint64 // packets handed to InjectBatch
	rejected uint64 // of those, refused by the classifier

	// Injector self-timing, cumulative.
	waitNS  int64 // inside AllocBatch retries and InjectBatch
	buildNS int64 // inside packet.BuildInto

	reloadEvery int // injected packets per Reload request; 0 = none
	sinceReload int
	reload      *reloader
	reloadMS    []float64
	reloadSkips int
	reloadErrs  uint64
}

// newRig compiles the workload's chains, builds and starts a server on
// cfg and starts its collector. sequential compiles the reference
// graphs; wrap, when set, wraps every NF instance the server runs.
func newRig(w *workload, tr *traffic, cfg dataplane.Config, sequential bool, wrap func(nf.NF) nf.NF) (*rig, setupTimes, error) {
	var st setupTimes
	r := &rig{w: w, cur: tr.cursor()}

	t0 := time.Now()
	for _, ch := range w.chains {
		g, err := ch.compile(sequential)
		if err != nil {
			return nil, st, err
		}
		r.graphs = append(r.graphs, g)
	}
	st.compile = time.Since(t0)

	t0 = time.Now()
	if wrap != nil {
		reg := nf.NewRegistry()
		r.provide = func(_ int, node graph.NF) nf.NF {
			inst, err := reg.New(node.Name)
			if err != nil {
				return nil // the server reports the unknown type itself
			}
			return wrap(inst)
		}
	}
	r.srv = dataplane.New(cfg)
	w.installRules(r.srv.Classifier())
	for i, ch := range w.chains {
		if err := r.srv.AddGraphProvide(ch.mid, r.graphs[i], r.provide); err != nil {
			return nil, st, fmt.Errorf("add graph %d: %w", ch.mid, err)
		}
	}
	st.addGraph = time.Since(t0)

	t0 = time.Now()
	if err := r.srv.Start(); err != nil {
		return nil, st, err
	}
	st.start = time.Since(t0)

	r.drops = r.srv.Telemetry().Counter(flightrec.MetricDrops)
	r.col.out = r.srv.Output()
	r.col.pool = r.srv.Pool()
	r.col.done = make(chan struct{})
	go r.col.run()
	return r, st, nil
}

// lost is how many injected packets will never reach the collector.
func (r *rig) lost() uint64 { return r.drops.Value() + r.rejected }

// burst allocates, builds, stamps and injects up to n packets (at most
// one burst) and returns how many it sent.
func (r *rig) burst(n int) int {
	pool := r.srv.Pool()
	want := r.batch[:min(n, burstLen)]
	t0 := time.Now()
	got := pool.AllocBatch(want)
	for got == 0 {
		runtime.Gosched()
		got = pool.AllocBatch(want)
	}
	t1 := time.Now()
	pkts := want[:got]
	for _, p := range pkts {
		packet.BuildInto(p, r.cur.next())
	}
	t2 := time.Now()
	ingress := t2.UnixNano()
	for _, p := range pkts {
		p.Ingress = ingress
	}
	r.sent += uint64(got)
	if acc := r.srv.InjectBatch(pkts); acc < got {
		// Refused packets stay ours; they count as failures.
		r.rejected += uint64(got - acc)
		pool.FreeBatch(pkts[acc:])
	}
	r.waitNS += int64(t1.Sub(t0) + time.Since(t2))
	r.buildNS += int64(t2.Sub(t1))

	if r.reloadEvery > 0 {
		if r.sinceReload += got; r.sinceReload >= r.reloadEvery {
			r.sinceReload -= r.reloadEvery
			select {
			case r.reload.req <- struct{}{}:
			default:
				r.reloadSkips++
			}
		}
	}
	return got
}

// drain waits until every packet sent so far has surfaced as an output,
// a drop or a rejection.
func (r *rig) drain() {
	for r.col.recv.Load()+r.lost() < r.sent {
		time.Sleep(20 * time.Microsecond)
	}
}

// run injects exactly n packets as fast as the pool allows and drains.
func (r *rig) run(n int) {
	for n > 0 {
		n -= r.burst(n)
	}
	r.drain()
}

// warmUp injects every established flow once: the stream's prefix.
func (r *rig) warmUp() { r.run(r.w.flows) }

// throughput runs the closed loop with the whole pool in flight for n
// consecutive windows and returns each window's completion rate.
func (r *rig) throughput(n int) []float64 {
	c := &r.col
	start := time.Now()
	marks := []mark{{ts: start.UnixNano(), n: c.recv.Load()}}
	for len(marks) <= n {
		r.burst(burstLen)
		if now := time.Now(); now.Sub(start) >= time.Duration(len(marks))*window {
			marks = append(marks, mark{ts: now.UnixNano(), n: c.recv.Load()})
		}
	}
	r.drain()
	return sliceRates(marks)
}

// latencySlices are the ingress-to-output samples (nanoseconds) of
// consecutive slices of a one-burst phase, each ascending.
type latencySlices [][]uint32

// best is the lowest p-th percentile any slice has. With one burst in
// flight a slice's percentile depends on what else had the cores during
// that eighth of a second and on whether the NF runtimes happened to
// park between bursts; the best slice is the one in which neither
// interfered, and most runs hold one.
func (l latencySlices) best(p float64) float64 {
	best := math.Inf(1)
	for _, s := range l {
		best = min(best, float64(percentile(s, p)))
	}
	return best
}

// count is the total number of samples, and smallest the size of the
// smallest slice — the one a quoted percentile has to be supported by.
func (l latencySlices) count() (total, smallest int) {
	for i, s := range l {
		total += len(s)
		if i == 0 || len(s) < smallest {
			smallest = len(s)
		}
	}
	return total, smallest
}

// latency keeps exactly one burst in flight for n slices: the next burst
// goes out when every packet of the previous one has surfaced as an
// output or been lost. The injector polls for that instead of sleeping,
// as the dataplane's own runtimes poll their rings: a wake-up through
// the kernel would sit between bursts, and whether the runtimes park
// meanwhile would be its doing. Samples are appended to the collector's
// buffer; the non-empty slices are returned sorted, in its storage.
func (r *rig) latency(n int) latencySlices {
	c := &r.col
	c.mode.Store(colLatency)
	start := time.Now()
	cuts := []int{len(c.samples)}
	for len(cuts) <= n {
		r.burst(burstLen)
		for c.recv.Load()+r.lost() < r.sent {
			runtime.Gosched()
		}
		// Nothing is in flight, so the collector's sample count is stable.
		for len(cuts) <= n && time.Since(start) >= time.Duration(len(cuts))*latencySlice {
			cuts = append(cuts, len(c.samples))
		}
	}
	c.mode.Store(colCount)
	out := make(latencySlices, 0, n)
	for i := 1; i < len(cuts); i++ {
		// A burst that outlasts a whole slice (a stalled reload) leaves
		// that slice empty; it has no percentile to contribute.
		if part := c.samples[cuts[i-1]:cuts[i]]; len(part) > 0 {
			slices.Sort(part)
			out = append(out, part)
		}
	}
	return out
}

// reloader is the control goroutine of a reconfiguring workload: it
// performs one Reload of the first chain per request.
type reloader struct {
	// req is buffered so a Reload slower than the request interval
	// queues work instead of stalling the injector; a full queue is
	// counted as a skipped request.
	req  chan struct{}
	done chan struct{}
	ms   []float64
	err  error
}

func (r *rig) startReloader(every int) {
	r.reloadEvery, r.sinceReload = every, 0
	if every == 0 {
		return
	}
	rl := &reloader{req: make(chan struct{}, 64), done: make(chan struct{})}
	r.reload = rl
	mid, g := r.w.chains[0].mid, r.graphs[0]
	go func() {
		defer close(rl.done)
		for range rl.req {
			t0 := time.Now()
			if err := r.srv.ReloadProvide(mid, g, r.provide); err != nil && rl.err == nil {
				rl.err = err
			}
			rl.ms = append(rl.ms, float64(time.Since(t0))/1e6)
		}
	}()
}

func (r *rig) stopReloader() {
	if r.reloadEvery == 0 {
		return
	}
	r.reloadEvery = 0
	close(r.reload.req)
	<-r.reload.done
	r.reloadMS = append(r.reloadMS, r.reload.ms...)
	if r.reload.err != nil {
		fmt.Printf("warning: reload failed: %v\n", r.reload.err)
		r.reloadErrs++
	}
}

// failures is what a stopped rig got wrong.
type failures struct {
	missing     uint64 // injected packets that neither left nor were dropped
	unexpected  uint64 // drops whose cause is not an NF verdict
	mergeErrors uint64
	rejected    uint64
	leaked      uint64 // pool buffers still out after Stop
	reloadErrs  uint64 // phases in which a Reload returned an error
}

func (f failures) total() uint64 {
	return f.missing + f.unexpected + f.mergeErrors + f.rejected + f.leaked + f.reloadErrs
}

// unexpectedDrops reads the flight recorder's per-cause drop series:
// every terminal drop that is not an NF's own verdict.
func unexpectedDrops(srv *dataplane.Server) uint64 {
	var n uint64
	for _, c := range srv.Telemetry().Snapshot().Counters {
		if cause, ok := c.Labels["cause"]; ok && c.Name == flightrec.MetricDrops &&
			cause != flightrec.CauseNFVerdict.String() {
			n += c.Value
		}
	}
	return n
}

// stop stops the server and the collector and checks conservation: every
// injected packet left or was dropped by an NF's verdict, no merge
// failed, no buffer leaked.
func (r *rig) stop() failures {
	r.srv.Stop()
	<-r.col.done
	st := r.srv.Stats()
	f := failures{
		unexpected:  unexpectedDrops(r.srv),
		mergeErrors: st.MergeErrors,
		rejected:    r.rejected,
		leaked:      uint64(r.srv.Pool().InUse()),
		reloadErrs:  r.reloadErrs,
	}
	if done := st.Outputs + st.Drops; st.Injected > done {
		f.missing = st.Injected - done
	}
	if got := r.col.recv.Load(); got < st.Outputs {
		f.missing += st.Outputs - got
	}
	return f
}
