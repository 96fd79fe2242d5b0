package dataplane

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nfp/internal/graph"
	"nfp/internal/mempool"
	"nfp/internal/nf"
	"nfp/internal/packet"
	"nfp/internal/ring"
	"nfp/internal/telemetry"
	"nfp/internal/telemetry/flightrec"
)

// DefaultBurst is the default dataplane burst size — DPDK's canonical
// 32-packet burst, the amortization unit the paper's throughput numbers
// assume.
const DefaultBurst = 32

// DefaultShards is the sharding default for nfpd: one shard per CPU,
// capped — each shard already fans out into runtime goroutines, so past
// the cap extra shards only oversubscribe the scheduler.
func DefaultShards() int {
	n := runtime.NumCPU()
	if n > 8 {
		n = 8
	}
	if n < 1 {
		n = 1
	}
	return n
}

// atomicPlans is the COW installed-graph map every shard publishes.
type atomicPlans = atomic.Pointer[map[uint32]*planRuntime]

// FlowObserver receives per-flow accounting for the sampled packets
// (Config.TraceSampleRate) from the classifier — the hook the diagnosis
// layer's heavy-hitter sketch plugs into without the dataplane importing
// it. Implementations must be safe for concurrent use; observations
// arrive pre-scaled by the sample rate (pkts = rate, bytes = wire length
// × rate), so estimates approximate true per-flow totals.
type FlowObserver interface {
	ObserveFlow(k packet.FlowKey, pkts, bytes uint64)
}

// Fixed sizings no deployment, test or benchmark ever varied.
const (
	// bufSize is the per-buffer slot size: frames start
	// mempool.Headroom (64 B) in, so up to 1984 bytes, which leaves room
	// over the MTU for AH encapsulation.
	bufSize = 2048
	// tailBudget is how many branch tails may wait at a shard's joins at
	// once and copyReserveDiv the divisor of the pool kept for packet
	// copies: a shard's admission budget (shard.admit), sized in
	// DESIGN.md §14.
	tailBudget     = 2048
	copyReserveDiv = 8
	// outputQueue is the capacity of every output channel: a few bursts,
	// so a momentarily slow consumer does not stall the NF runtimes.
	outputQueue = 1024
	// restartBackoff is the initial delay before a crashed NF instance is
	// restarted; it doubles per panic up to restartBackoffMax.
	restartBackoff    = time.Millisecond
	restartBackoffMax = 250 * time.Millisecond
	// drainPoll is how often Stop and retire re-read the counts they
	// wait on to reach zero: control-plane waits, off the packet path.
	drainPoll = 50 * time.Microsecond
	// flowCacheSlots is each shard's microflow cache size at New (a
	// power of two); a cache doubles under collisions, up to fcMaxSlots
	// (see microCache).
	flowCacheSlots = 4096
)

// Config is the one declaration of every dataplane setting: nfpd binds
// its flags into it and hands it to New, which reads it as is; tests,
// examples and the benchmark fill it in directly. The zero value of
// every field selects its default.
type Config struct {
	// PoolSize is the number of packet buffers in the shared pool
	// (default 4096). With Shards > 1 the pool is partitioned evenly
	// across the shards, so size it as a whole-server budget.
	PoolSize int
	// RingSize is the per-NF receive ring capacity (default 512).
	RingSize int
	// Burst is the dataplane burst size (default 32): how many packet
	// references NF runtimes drain per ring visit, and the granularity
	// at which per-burst telemetry is amortized. Every
	// hand-off is a burst; Burst=1 makes each a burst of one, so every
	// counter, histogram sample and span lands per packet.
	Burst int
	// Shards replicates the whole dataplane (RSS-style flow sharding):
	// each shard gets its own microflow cache, plan runtimes, rings,
	// join tables and mempool partition, and the injecting
	// goroutine picks the shard by symmetric 5-tuple flow hash so every
	// packet of a flow — and all per-flow NF state — stays on one
	// shard, lock-free. Ingress is the same code for every value:
	// Inject/InjectBatch classify inline and enter the shard's graph
	// directly, under one ownership contract (see InjectBatch). Default
	// 1: a single shard, no hashing, no shard labels. When sharded,
	// per-NF and per-join series gain a shard=<i> label.
	Shards int
	// ShardedOutputs, with Shards > 1, gives each shard its own output
	// channel (Outputs()) instead of the one every shard sends into,
	// and Output() returns nil.
	ShardedOutputs bool
	// Registry provides NF factories (default nf.NewRegistry()).
	Registry *nf.Registry
	// Telemetry receives every dataplane metric. Each server should get
	// its own registry (series names collide otherwise); nil creates a
	// private one, reachable via Server.Telemetry().
	Telemetry *telemetry.Registry
	// TraceSampleRate is the one sampling decision: roughly one packet
	// in TraceSampleRate, selected by PID hash (rounded down to a power
	// of two; 1 observes every packet), is observed, and everything
	// per-packet the dataplane can report covers exactly that set — the
	// hop-by-hop spans (Tracer), end-to-end latency
	// (nfp_e2e_latency_ns{mid}, ingress stamp to output delivery), the
	// joins' merge latency (nfp_merger_merge_latency_ns) and
	// FlowAccount. 0 observes nothing, at zero hot-path cost.
	TraceSampleRate int
	// TraceCapacity bounds the trace event ring (default 4096).
	TraceCapacity int
	// FlowAccount, when set, receives per-flow (5-tuple) accounting of
	// the sampled packets from the classifier (see TraceSampleRate).
	FlowAccount FlowObserver
	// Fusion selects the execution engine: FusionOn (the zero value)
	// fuses strictly sequential graph segments into single
	// run-to-completion runtimes with no intermediate ring; FusionOff
	// keeps the fully pipelined one-goroutine-per-NF layout. Both modes
	// are observationally equivalent (see internal/equivalence); fusion
	// only removes ring hops the graph structure proves redundant.
	Fusion FusionMode
}

func (c *Config) setDefaults() {
	if c.PoolSize == 0 {
		c.PoolSize = 4096
	}
	if c.RingSize == 0 {
		c.RingSize = 512
	}
	if c.Burst == 0 {
		c.Burst = DefaultBurst
	}
	if c.Burst < 1 {
		c.Burst = 1
	}
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.Registry == nil {
		c.Registry = nf.NewRegistry()
	}
	if c.Telemetry == nil {
		c.Telemetry = telemetry.NewRegistry()
	}
}

// planRuntime is one shard's installation of a service graph: the
// shared compiled Plan plus this shard's segment runtimes and join
// tables. A sharded server holds Config.Shards planRuntimes per MID, one
// per shard, all referencing the same immutable Plan. A Reload stands up
// a whole new planRuntime per shard (a new config generation) beside the
// old one, swaps the dispatch map, and drains the old runtime via the
// inflight/gone/retired protocol below.
type planRuntime struct {
	plan *Plan
	// rts holds one runtime per fused segment (per NF when fusion is
	// off); owner maps a plan node ID to the runtime executing it, so
	// dispatch targets resolve to the ring-owning segment.
	rts   []*nodeRT
	owner []*nodeRT
	// e2eLat records the sampled packets' ingress→output latency for
	// this graph (nil when nothing is sampled).
	e2eLat *telemetry.Histogram
	// nodes holds the flight recorder's facts per plan node: its name and
	// terminal drop counters.
	nodes []nodeRec
	// joins holds the plan's joins (shard.joinPush), and frames hands out
	// the join frames their packets carry (nil without a join).
	joins []joinRT

	// gen is the config generation that installed this runtime (1 for
	// the initial install; each Reload bumps the server generation).
	gen    uint64
	frames *frames

	// weight is what one packet occupies of the shard's admission budget
	// (buildRuntime); 0 without a join.
	weight budget

	// inflight counts packets injected into this runtime that have not
	// yet reached their terminal output/drop event. Injectors reserve a
	// slot via shard.acquire BEFORE enqueueing, and shard.emit releases
	// it, so inflight == 0 means no packet of this
	// generation exists anywhere: rings, NF bursts, join tables, or drop
	// routes.
	inflight atomic.Int64
	// terminal counts completed packets (outputs + drops) of this
	// runtime — the per-generation drain meter.
	terminal atomic.Uint64
	// gone seals the runtime after a reload swapped it out of the
	// dispatch map: acquire retries against the published successor, so
	// no new packet can enter, and inflight becomes monotonically
	// draining.
	gone atomic.Bool
	// retired tells the runtime goroutines to exit; it is set only
	// after inflight reached 0, so every ring is provably empty.
	retired atomic.Bool
	// wg tracks this runtime's segment goroutines for teardown.
	wg sync.WaitGroup
}

// spanGen is the TraceEvent.Gen tag: gen for reloaded generations, 0
// for generation 1 so pre-reload trace output stays byte-identical (the
// field is omitempty). Not a field: planRuntime keeps its 176-byte size
// class with frames.
func (pr *planRuntime) spanGen() int {
	if pr.gen > 1 {
		return int(pr.gen)
	}
	return 0
}

// Server is one NFP server (Figure 3): shared memory pool, classifier,
// and one or more shards, each holding NF runtimes, join tables and
// (when sharded) its own mempool partition.
type Server struct {
	cfg        Config
	pool       *mempool.Pool
	classifier Classifier
	shards     []*shard
	// out is the fan-in output channel (nil when Config.ShardedOutputs
	// exposes the per-shard channels instead).
	out chan *packet.Packet

	// ctl is the control-plane lock: install (AddGraph*, Reload*), Start
	// and Stop each hold it from entry to return, so the lifecycle steps
	// never interleave. A graph installed beside a Start has its
	// runtimes started exactly once; an install beside a Stop either
	// completes first (and Stop waits for its goroutines) or fails with
	// "server stopped"; a Stop that lands mid-reload waits for the reload
	// to drain the outgoing generation, then drains the incoming one.
	// started is guarded by ctl. stopped is written under ctl and also
	// read lock-free by the runtime goroutines and restart timers.
	ctl     sync.Mutex
	started bool
	stopped atomic.Bool
	wg      sync.WaitGroup

	// End-to-end counters, registry-backed (Config.Telemetry).
	tel       *telemetry.Registry
	tracer    *telemetry.Tracer
	injected  *telemetry.Counter
	outCount  *telemetry.Counter
	drops     *telemetry.Counter
	copies    *telemetry.Counter
	copiedB   *telemetry.Counter // bytes duplicated (resource overhead meter)
	mergeErrs *telemetry.Counter
	// The spin/park activity of every backpressured retry loop.
	bpYields *telemetry.Counter
	bpParks  *telemetry.Counter

	// rec is the always-on flight recorder. recAdmitID is the interned
	// site name of an injector's backpressure events at admission.
	rec        *flightrec.Recorder
	recAdmitID uint32

	// Config-generation state. generation is the live config
	// generation (1 after New; each successful Reload bumps it), also
	// published on the nfp_config_generation gauge. history records one
	// entry per install/reload event for /debug/config.
	generation atomic.Uint64
	genG       *telemetry.Gauge
	reloadsC   *telemetry.Counter
	drainedC   *telemetry.Counter
	cfgMu      sync.Mutex
	history    []GenerationInfo
	// panics and restarts count every NF crash and instance replacement
	// of the server's lifetime, whatever generation or graph it hit, for
	// Stats.
	panics   atomic.Uint64
	restarts atomic.Uint64

	// stateful lists, per live runtime, the NF slots that report per-flow
	// state (pollState). It is kept here rather than on the planRuntime,
	// whose size decides which cache lines its per-packet atomics share.
	// stateMu guards it and serializes pollState: scrapes may overlap.
	stateMu  sync.Mutex
	stateful map[*planRuntime][]*stateMetrics
}

// New creates a server from cfg.
func New(cfg Config) *Server {
	cfg.setDefaults()
	s := &Server{
		cfg:      cfg,
		pool:     mempool.New(cfg.PoolSize, bufSize),
		stateful: map[*planRuntime][]*stateMetrics{},
	}
	s.tel = cfg.Telemetry
	s.tracer = telemetry.NewTracer(cfg.TraceSampleRate, cfg.TraceCapacity)
	if s.tracer != nil {
		s.tracer.SetEvictedCounter(s.tel.Counter("nfp_trace_evicted_total"))
	}
	s.injected = s.tel.Counter("nfp_injected_total")
	s.outCount = s.tel.Counter("nfp_outputs_total")
	s.drops = s.tel.Counter("nfp_drops_total")
	s.copies = s.tel.Counter("nfp_copies_total")
	s.copiedB = s.tel.Counter("nfp_copied_bytes_total")
	s.mergeErrs = s.tel.Counter("nfp_merge_errors_total")
	s.bpYields = s.tel.Counter("nfp_backpressure_yields_total")
	s.bpParks = s.tel.Counter("nfp_backpressure_parks_total")
	s.generation.Store(1)
	s.genG = s.tel.Gauge("nfp_config_generation")
	s.genG.Set(1)
	s.reloadsC = s.tel.Counter("nfp_reloads_total")
	s.drainedC = s.tel.Counter("nfp_reload_drained_total")
	s.rec = flightrec.NewRecorder(flightrec.Config{Shards: cfg.Shards})
	s.recAdmitID = s.rec.Intern("admission")
	// Self-description for scrapes and incident bundles: one constant
	// gauge whose labels carry the build and topology facts.
	bi := s.BuildInfo()
	s.tel.Gauge("nfp_build_info",
		telemetry.L("version", bi["version"]),
		telemetry.L("go_version", bi["go_version"]),
		telemetry.L("shards", bi["shards"]),
		telemetry.L("burst", bi["burst"]),
		telemetry.L("fusion", bi["fusion"]),
	).Set(1)
	s.tel.OnSnapshot(s.pollState)
	s.classifier.bindTelemetry(s.tel)
	s.classifier.bindFlowCache(cfg.Shards, flowCacheSlots)
	if cfg.FlowAccount != nil {
		s.classifier.bindFlowObserver(cfg.FlowAccount, s.tracer)
	}
	sharded := s.sharded()
	var parts []*mempool.Pool
	if sharded {
		parts = s.pool.Partition(cfg.Shards)
	}
	s.pool.MustRegister(s.tel)
	// The slice of the pool kept for the copies parallel stages create,
	// split over the shards: the copy half of each one's budget.
	reserve := cfg.PoolSize / copyReserveDiv
	if reserve < 8 {
		reserve = cfg.PoolSize / 2
	}
	if !sharded || !cfg.ShardedOutputs {
		s.out = make(chan *packet.Packet, outputQueue)
	}
	for i := 0; i < cfg.Shards; i++ {
		// Every shard sends into the one output channel unless outputs
		// are sharded: a channel takes concurrent senders, no fan-in.
		sh := &shard{id: i, srv: s, out: s.out, joinTails: telemetry.NewCounter(), freed: ring.NewCond()}
		if sharded {
			sh.spanID = i + 1
			sh.pool = parts[i]
			if cfg.ShardedOutputs {
				sh.out = make(chan *packet.Packet, outputQueue)
			}
			sh.ingress = s.tel.Counter("nfp_shard_ingress_total", telemetry.L("shard", strconv.Itoa(i)))
		} else {
			sh.pool = s.pool
		}
		sh.plans.Store(&map[uint32]*planRuntime{})
		sh.room = newBudget(reserve/cfg.Shards, tailBudget)
		sh.pool.SetReserve(sh.room.copies())
		s.shards = append(s.shards, sh)
	}
	return s
}

// sharded reports whether the server replicates the plan across
// multiple shards. It reads the configuration, not s.shards, which New
// is still filling while it labels the shards' series.
func (s *Server) sharded() bool { return s.cfg.Shards > 1 }

// Shards returns the number of dataplane shards.
func (s *Server) Shards() int { return len(s.shards) }

// shardMix finalizes the flow hash before the shard modulus
// (Murmur3's avalanche step): FNV's low bits are weak on structured
// key sets — real traffic with clustered addresses and sequential
// ports can otherwise starve entire shards.
func shardMix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// ShardOfKey returns the shard a flow executes on: the (mixed)
// symmetric 5-tuple hash modulo the shard count, so both directions of
// a flow — what stateful NFs key their tables by — land on the same
// shard.
func (s *Server) ShardOfKey(k packet.FlowKey) int {
	if !s.sharded() {
		return 0
	}
	return int(shardMix(k.SymmetricHash()) % uint64(len(s.shards)))
}

// ShardOf returns the shard a packet executes on. Unparseable packets
// fall to shard 0, where only a default route can classify them.
func (s *Server) ShardOf(pkt *packet.Packet) int {
	if !s.sharded() {
		return 0
	}
	fk, err := pkt.FlowKey()
	if err != nil {
		return 0
	}
	return s.ShardOfKey(fk)
}

// ShardPool returns shard i's mempool partition (the shared pool when
// unsharded) — per-shard traffic sources allocate here for full buffer
// locality.
func (s *Server) ShardPool(i int) *mempool.Pool { return s.shards[i].pool }

// AddGraph compiles and installs a service graph under mid, creating
// fresh NF instances from the registry — an independent instance set
// per shard, so per-flow NF state stays shard-local. The first
// installed graph becomes the classifier default.
func (s *Server) AddGraph(mid uint32, g graph.Node) error {
	return s.install(mid, g, nil, false)
}

// AddGraphInstances installs a graph using the provided NF instances
// where present (tests and examples use this to inspect NF state);
// missing instances come from the registry. It requires a single-shard
// server: one instance cannot serve multiple shards without breaking
// state locality — sharded callers use AddGraphProvide.
func (s *Server) AddGraphInstances(mid uint32, g graph.Node, instances map[graph.NF]nf.NF) error {
	if instances != nil && s.sharded() {
		return fmt.Errorf("dataplane: AddGraphInstances with explicit instances requires Shards=1 (a shared instance would cross shards); use AddGraphProvide")
	}
	return s.install(mid, g, func(_ int, n graph.NF) nf.NF { return instances[n] }, false)
}

// AddGraphProvide installs a graph with per-shard NF instances:
// provide(shard, node) returns the instance for one node on one shard
// (nil falls back to the registry). Each shard's instances are only
// invoked from that shard's runtime goroutines. It fails when mid is
// already installed (use Reload to replace it) or the server stopped.
//
// Installation is allowed before Start and while the server runs — the
// §7 elasticity path ("we could simply create a new instance ... and
// modify the forwarding table to redirect some flows to the new
// instance"): on a running server the new graph's NF runtimes start
// before it is published, and classifier rules can then redirect flows
// to the new MID with zero packet loss. See install for the lifecycle.
func (s *Server) AddGraphProvide(mid uint32, g graph.Node, provide func(shard int, node graph.NF) nf.NF) error {
	return s.install(mid, g, provide, false)
}

// Reload hot-swaps the service graph installed under mid for a freshly
// compiled one with zero packet loss. It may be called while traffic
// flows (that is the point) and from any goroutine. The NF instances of
// the new generation come fresh from the registry — reloading is a
// policy swap, not a state migration. It fails when mid is not
// installed (use AddGraph) or the server stopped; a failed Reload
// changes nothing and records a reload_failed flight-recorder event,
// which triggers an incident snapshot when a spool is armed.
func (s *Server) Reload(mid uint32, g graph.Node) error {
	return s.install(mid, g, nil, true)
}

// ReloadProvide is Reload with per-shard NF instance injection, the
// reload analog of AddGraphProvide (tests and state-migration layers
// use it to hand the new generation pre-built instances).
func (s *Server) ReloadProvide(mid uint32, g graph.Node, provide func(shard int, node graph.NF) nf.NF) error {
	return s.install(mid, g, provide, true)
}

// install is the one path by which a graph goes live, whether
// generation N comes from nothing (replace false: the MID must be new,
// and the graph joins the live generation) or from N-1 (replace true:
// the MID must be installed, and the server generation advances):
//
//  1. compile g to a Plan and build per-shard runtimes (rings, fused
//     segments, NF instances, generation-labelled telemetry) beside
//     whatever is live;
//  2. start the new runtimes if the server runs (Start starts them
//     otherwise), so no packet can reach a runtime nobody drains;
//  3. publish them in each shard's COW dispatch map — packets
//     classified from here on execute on the new runtimes, while
//     in-flight packets keep their runtime pointer all the way through
//     rings, join tables and drop routes;
//  4. replace only: seal, drain and retire the predecessor (retire).
//
// Every failure happens in step 1, before anything is shared, so a
// failed install leaves generation, history and dispatch maps untouched.
// The whole of it runs under ctl, serialized with every other install,
// Start and Stop.
func (s *Server) install(mid uint32, g graph.Node, provide func(shard int, node graph.NF) nf.NF, replace bool) (err error) {
	if replace {
		// Deferred first, so it runs after ctl is released: the event
		// fires the recorder's incident hook, which is caller-supplied.
		defer func() {
			if err != nil {
				s.note(flightrec.KindReloadFailed, s.generation.Load(), s.rec.Intern(err.Error()), 0)
			}
		}()
	}
	s.ctl.Lock()
	defer s.ctl.Unlock()
	if s.stopped.Load() {
		return fmt.Errorf("dataplane: server stopped")
	}
	plan, err := CompilePlan(mid, g)
	if err != nil {
		return err
	}
	old := make([]*planRuntime, len(s.shards))
	for i, sh := range s.shards {
		old[i] = (*sh.plans.Load())[mid]
	}
	gen := s.generation.Load()
	switch {
	case replace && old[0] == nil:
		return fmt.Errorf("dataplane: MID %d not installed (use AddGraph)", mid)
	case !replace && old[0] != nil:
		return fmt.Errorf("dataplane: MID %d already installed (use Reload)", mid)
	case replace:
		gen++
	}
	prs := make([]*planRuntime, len(s.shards))
	for i, sh := range s.shards {
		if prs[i], err = s.buildRuntime(sh, plan, provide, gen); err != nil {
			s.forgetState(prs[:i])
			return err
		}
	}
	if s.started {
		for _, pr := range prs {
			s.startRuntimes(pr)
		}
	}
	// Snapshot the predecessor's completion meter before the swap so the
	// drain counter covers everything that finishes after it.
	var preTerm uint64
	if replace {
		for _, pr := range old {
			preTerm += pr.terminal.Load()
		}
	}
	first := len(*s.shards[0].plans.Load()) == 0
	for i, sh := range s.shards {
		cur := *sh.plans.Load()
		next := make(map[uint32]*planRuntime, len(cur)+1)
		for k, v := range cur {
			next[k] = v
		}
		next[mid] = prs[i]
		sh.plans.Store(&next)
	}
	info := GenerationInfo{
		Generation:  gen,
		MID:         mid,
		Hash:        plan.CompileHash(),
		InstalledNS: time.Now().UnixNano(),
	}
	if !replace {
		if first {
			s.classifier.SetDefault(mid)
		}
		s.recordGeneration(info)
		s.note(flightrec.KindInstall, gen, 0, uint64(mid))
		return nil
	}
	s.generation.Store(gen)
	s.genG.Set(int64(gen))
	s.reloadsC.Inc()
	s.note(flightrec.KindReloadSwap, gen, 0, 0)
	info.SwappedNS = info.InstalledNS
	info.Drained = s.retire(old) - preTerm
	info.DrainNS = time.Now().UnixNano() - info.SwappedNS
	s.drainedC.Add(info.Drained)
	s.note(flightrec.KindReloadDrained, old[0].gen, 0, info.Drained)
	s.recordGeneration(info)
	return nil
}

// retire takes a superseded generation's per-shard runtimes, already
// swapped out of the dispatch maps, out of service — the reloader half
// of the drain protocol (shard.acquire is the injector half) — and
// returns their lifetime count of completed packets.
func (s *Server) retire(old []*planRuntime) (terminal uint64) {
	// Seal: acquire's increment-then-check handshake guarantees that once
	// gone is visible, no injector can add to inflight without observing
	// the seal and retrying against the published successor.
	for _, pr := range old {
		pr.gone.Store(true)
	}
	// Drain: wait for every packet of the generation to reach its
	// terminal output/drop event. Like Stop, this requires the output
	// consumer to keep draining. Once sealed, a runtime's inflight only
	// falls (an injector that raises it past the seal backs out).
	for _, pr := range old {
		for pr.inflight.Load() != 0 {
			time.Sleep(drainPoll)
		}
	}
	// Retire: runtimes exit (rings are provably empty), woken to see it.
	for _, pr := range old {
		pr.retired.Store(true)
		for _, rt := range pr.rts {
			rt.rx.Wake()
		}
		terminal += pr.terminal.Load()
		pr.wg.Wait()
	}
	s.forgetState(old)
	return terminal
}

// buildRuntime instantiates one shard's runtimes for a compiled plan
// at config generation gen. A series is named by what it measures —
// family, nf, mid and shard — never by the generation, so a reload's
// runtimes get the live ones' counters, gauges and histograms back
// from the registry and continue them: counters stay monotone, and
// the registry holds one set of series per installed graph however
// many reloads run.
func (s *Server) buildRuntime(sh *shard, plan *Plan, provide func(int, graph.NF) nf.NF, gen uint64) (*planRuntime, error) {
	// What one packet can hold: its copies, and a tail per branch at
	// its join (a drop cuts a branch short and reports once: never more).
	copies, tails := plan.CopiesPerPacket(), 0
	for _, j := range plan.Joins {
		tails += j.ExpectTails
	}
	if copies > sh.room.copies() || tails > sh.room.tails() {
		return nil, fmt.Errorf("dataplane: one packet of MID %d needs %d copies and %d join tails, over a shard's admission budget of %d (copy reserve) and %d (tail budget)",
			plan.MID, copies, tails, sh.room.copies(), sh.room.tails())
	}
	// Every instance first, so a build that fails registers no series:
	// the health gauge of an NF no runtime serves would read 0.
	insts := make([]nf.NF, len(plan.Nodes))
	for i := range plan.Nodes {
		if provide != nil {
			insts[i] = provide(sh.id, plan.Nodes[i].NF)
		}
		if insts[i] == nil {
			var err error
			if insts[i], err = s.cfg.Registry.New(plan.Nodes[i].NF.Name); err != nil {
				return nil, fmt.Errorf("dataplane: node %v: %w", plan.Nodes[i].NF, err)
			}
		}
	}
	pr := &planRuntime{plan: plan, owner: make([]*nodeRT, len(plan.Nodes)), gen: gen, weight: newBudget(copies, tails)}
	var stateful []*stateMetrics
	pr.nodes = make([]nodeRec, len(plan.Nodes))
	for i := range plan.Nodes {
		pr.nodes[i].name = s.rec.Intern(plan.Nodes[i].NF.String())
	}
	var segs [][]int
	if s.cfg.Fusion.enabled() {
		segs = plan.FusedSegments()
	} else {
		segs = singletonSegments(len(plan.Nodes))
	}
	midLabel := telemetry.L("mid", strconv.FormatUint(uint64(plan.MID), 10))
	if s.tracer != nil {
		pr.e2eLat = s.tel.Histogram("nfp_e2e_latency_ns", sh.labelShard([]telemetry.Label{midLabel})...)
	}
	for _, seg := range segs {
		head := &plan.Nodes[seg[0]]
		headLabels := sh.labelShard([]telemetry.Label{telemetry.L("nf", head.NF.String()), midLabel})
		n := &nodeRT{
			nfs:      make([]segNF, len(seg)),
			rx:       ring.NewMPSC(s.cfg.RingSize),
			ringHW:   s.tel.Gauge("nfp_nf_ring_high_water", headLabels...),
			site:     pr.nodes[seg[0]].name,
			sh:       sh,
			pr:       pr,
			burst:    make([]*packet.Packet, s.cfg.Burst),
			verdicts: make([]nf.Verdict, s.cfg.Burst),
			dropped:  make([]*packet.Packet, 0, s.cfg.Burst),
		}
		// Static capacity beside the high-water mark, so the diagnosis
		// layer can express occupancy as a fill fraction.
		s.tel.Gauge("nfp_nf_ring_capacity", headLabels...).Set(int64(n.rx.Cap()))
		for k, id := range seg {
			pn, inst := &plan.Nodes[id], insts[id]
			labels := sh.labelShard([]telemetry.Label{telemetry.L("nf", pn.NF.String()), midLabel})
			sn := &n.nfs[k]
			sn.plan = pn
			sn.pktsIn = s.tel.Counter("nfp_nf_packets_in_total", labels...)
			sn.pktsOut = s.tel.Counter("nfp_nf_packets_out_total", labels...)
			sn.drops = s.tel.Counter("nfp_nf_drops_total", labels...)
			sn.panics = s.tel.Counter("nfp_nf_panics_total", labels...)
			sn.restarts = s.tel.Counter("nfp_nf_restarts_total", labels...)
			sn.restartFails = s.tel.Counter("nfp_nf_restart_failures_total", labels...)
			sn.healthyG = s.tel.Gauge("nfp_nf_healthy", labels...)
			sn.svcTime = s.tel.Histogram("nfp_nf_service_time_ns", labels...)
			if _, ok := inst.(stateReporter); ok {
				stateful = append(stateful, &stateMetrics{
					sn:        sn,
					entries:   s.tel.Gauge("nfp_nf_state_entries", labels...),
					bytes:     s.tel.Gauge("nfp_nf_state_bytes", labels...),
					evictions: s.tel.Counter("nfp_nf_state_evictions_total", labels...),
					refusals:  s.tel.Counter("nfp_nf_state_refusals_total", labels...),
				})
			}
			sn.instP.Store(&instBox{nf: inst})
			pr.owner[id] = n
		}
		n.healthy.Store(true)
		pr.rts = append(pr.rts, n)
	}
	if len(plan.Joins) > 0 {
		// Admission lets at most this many of the plan's packets in at
		// once: one frame each.
		bound := sh.room.tails() / tails
		pr.frames = newFrames(bound)
		pr.joins = make([]joinRT, len(plan.Joins))
		for j := range pr.joins {
			labels := sh.labelShard([]telemetry.Label{midLabel, telemetry.L("join", strconv.Itoa(j))})
			jr := &pr.joins[j]
			jr.entries = make([]joinEntry, bound)
			jr.slots = make([]joinSlot, bound*plan.Joins[j].ExpectTails)
			jr.processed = s.tel.Counter("nfp_merger_processed_total", labels...)
			jr.merged = s.tel.Counter("nfp_merger_merged_total", labels...)
			jr.drops = s.tel.Counter("nfp_merger_drops_total", labels...)
			jr.atSize = s.tel.Gauge("nfp_merger_at_size", labels...)
			jr.atHW = s.tel.Gauge("nfp_merger_at_high_water", labels...)
			jr.mergeLat = s.tel.Histogram("nfp_merger_merge_latency_ns", labels...)
		}
	}
	if len(stateful) > 0 {
		s.stateMu.Lock()
		s.stateful[pr] = stateful
		s.stateMu.Unlock()
	}
	return pr, nil
}

// startRuntimes launches the segment runtime goroutines of one plan.
func (s *Server) startRuntimes(pr *planRuntime) {
	for _, n := range pr.rts {
		s.wg.Add(1)
		pr.wg.Add(1)
		go func(n *nodeRT) {
			defer s.wg.Done()
			defer pr.wg.Done()
			n.drain()
		}(n)
	}
}

// GenerationInfo records one config install/reload event for
// /debug/config.
type GenerationInfo struct {
	// Generation is the config generation this event produced.
	Generation uint64 `json:"generation"`
	// MID is the service graph the event installed or replaced.
	MID uint32 `json:"mid"`
	// Hash is the compiled plan's structural hash — two reloads to the
	// same policy produce the same hash.
	Hash string `json:"compile_hash"`
	// InstalledNS is when the runtimes were built (unix nanoseconds).
	InstalledNS int64 `json:"installed_ns"`
	// SwappedNS is when the dispatch tables swapped to this generation
	// (0 for the initial install, which was never swapped in live).
	SwappedNS int64 `json:"swapped_ns,omitempty"`
	// DrainNS is how long draining the previous generation took after
	// the swap, and Drained how many of its in-flight packets completed
	// during that window.
	DrainNS int64  `json:"drain_ns,omitempty"`
	Drained uint64 `json:"drained,omitempty"`
}

// ConfigInfo is the /debug/config snapshot: live generation plus the
// conservation counters that prove a reload lost nothing.
type ConfigInfo struct {
	Generation uint64           `json:"generation"`
	Reloads    uint64           `json:"reloads"`
	Shards     int              `json:"shards"`
	Injected   uint64           `json:"injected"`
	Outputs    uint64           `json:"outputs"`
	Drops      uint64           `json:"drops"`
	PoolInUse  int              `json:"pool_in_use"`
	History    []GenerationInfo `json:"history"`
}

// recordGeneration appends one event to the bounded config history.
func (s *Server) recordGeneration(gi GenerationInfo) {
	s.cfgMu.Lock()
	defer s.cfgMu.Unlock()
	s.history = append(s.history, gi)
	if n := len(s.history); n > 32 {
		s.history = s.history[n-32:]
	}
}

// ConfigInfo returns the current config-generation snapshot.
func (s *Server) ConfigInfo() ConfigInfo {
	s.cfgMu.Lock()
	hist := append([]GenerationInfo(nil), s.history...)
	s.cfgMu.Unlock()
	return ConfigInfo{
		Generation: s.generation.Load(),
		Reloads:    s.reloadsC.Value(),
		Shards:     len(s.shards),
		Injected:   s.injected.Value(),
		Outputs:    s.outCount.Value(),
		Drops:      s.drops.Value(),
		PoolInUse:  s.pool.InUse(),
		History:    hist,
	}
}

// Generation returns the live config generation (1 until the first
// Reload).
func (s *Server) Generation() uint64 { return s.generation.Load() }

// Classifier exposes the classification table for rule installation.
// The table is shared by every shard (lookups are lock-free COW
// reads).
func (s *Server) Classifier() *Classifier { return &s.classifier }

// Pool returns the shared packet pool; traffic generators must build
// injected packets in pool buffers. On a sharded server the pool
// delegates to the per-shard partitions round-robin; sources that know
// their target shard use ShardPool for strict locality.
func (s *Server) Pool() *mempool.Pool { return s.pool }

// Output is the stream of packets that completed their service graph.
// The consumer owns each packet and must Free it. Nil when
// Config.ShardedOutputs routed outputs to per-shard channels.
func (s *Server) Output() <-chan *packet.Packet { return s.out }

// Outputs returns the per-shard output channels (the single output
// channel unless Config.ShardedOutputs split it). Consumers own the
// packets and must Free them.
func (s *Server) Outputs() []<-chan *packet.Packet {
	if s.out != nil {
		return []<-chan *packet.Packet{s.out}
	}
	chans := make([]<-chan *packet.Packet, len(s.shards))
	for i, sh := range s.shards {
		chans[i] = sh.out
	}
	return chans
}

// Start launches every installed graph's NF runtimes. It needs at least one installed graph and runs once.
// Graphs installed later start their own runtimes (see install); ctl
// orders the two, so a runtime is started exactly once either way.
func (s *Server) Start() error {
	s.ctl.Lock()
	defer s.ctl.Unlock()
	if len(*s.shards[0].plans.Load()) == 0 {
		return fmt.Errorf("dataplane: no graphs installed")
	}
	if s.started {
		return fmt.Errorf("dataplane: already started")
	}
	s.started = true
	for _, sh := range s.shards {
		for _, pr := range *sh.plans.Load() {
			s.startRuntimes(pr)
		}
	}
	return nil
}

// Stop drains in-flight packets and terminates all goroutines. Call it
// after the last Inject/InjectBatch returned; a second or concurrent
// Stop waits for the first and is then a no-op, as is Stop on a server
// that never started. After Stop every install fails.
//
// Stop holds ctl like install does: called mid-reload it first waits
// for the reload to finish draining the outgoing generation, then
// drains the incoming one — the global conservation wait below covers
// every generation, because injected/outputs/drops are generation-blind
// totals and each packet terminates exactly once on the runtime it was
// injected into. An install that won the lock first has started its
// goroutines (wg.Add) before the wg.Wait below can run.
func (s *Server) Stop() {
	s.ctl.Lock()
	defer s.ctl.Unlock()
	if !s.started || s.stopped.Load() {
		return
	}
	// Wait until every injected packet surfaced as an output or a
	// drop. The output channel consumer must keep draining until Stop
	// returns, or this backpressures forever.
	for s.injected.Value() > s.outCount.Value()+s.drops.Value() {
		time.Sleep(drainPoll)
	}
	s.note(flightrec.KindStop, s.generation.Load(), 0, 0)
	s.stopped.Store(true)
	for _, sh := range s.shards { // wake every consumer to see it
		for _, pr := range *sh.plans.Load() {
			for _, rt := range pr.rts {
				rt.rx.Wake()
			}
		}
	}
	s.wg.Wait()
	if s.out == nil {
		for _, sh := range s.shards {
			close(sh.out)
		}
		return
	}
	close(s.out)
}

// Inject sends one packet (built in a pool buffer) into the dataplane:
// a one-packet InjectBatch. It reports false when the packet is
// rejected — no rule and no default route match it, or its MID has no
// installed graph — and the caller keeps ownership of a rejected
// packet.
func (s *Server) Inject(pkt *packet.Packet) bool {
	one := [1]*packet.Packet{pkt}
	return s.InjectBatch(one[:]) == 1
}

// InjectPreclassified sends a packet whose metadata (MID, PID,
// version) was assigned elsewhere — the cross-server ingress path,
// where the upstream server's classifier already tagged the packet and
// the NSH shim carried the tags over the wire (§7). It reports false,
// and the caller keeps the packet, when the MID has no installed graph
// or the carried version is not the one its graph starts from (0 means
// unset and takes that version). On a sharded server the packet
// executes on its flow's shard (resolved by hash, like fresh ingress),
// so cross-server flow affinity is preserved.
func (s *Server) InjectPreclassified(pkt *packet.Packet) bool {
	sh := s.shards[s.ShardOf(pkt)]
	pr, _ := sh.acquire(pkt.Meta.MID, 1)
	if pr == nil {
		return false
	}
	if pkt.Meta.Version == 0 {
		pkt.Meta.Version = pr.plan.BaseVersion
	}
	if pkt.Meta.Version != pr.plan.BaseVersion {
		// Off the wire: the executor trusts a burst's source version.
		sh.settle(pr, 1)
		return false
	}
	one := [1]*packet.Packet{pkt}
	sh.injectBurst(pr, one[:])
	return true
}

// InjectBatch injects a whole burst, the ingress analog of DPDK burst
// receive, on the calling goroutine: it splits the burst into runs of
// same-shard packets (one run, no hashing, when Shards == 1),
// classifies each run against that shard's microflow cache with
// counters amortized across the run, and delivers each MID's packets of
// the run into the shard's graph as one burst (per 32 packets), in
// arrival order, however the graphs' flows interleave. Any number of
// goroutines may inject concurrently.
//
// It returns the number of packets accepted and stably partitions
// pkts: accepted packets occupy pkts[:n] (in their original relative
// order, already delivered — the dataplane owns them), rejected packets
// — unclassified, or classified to a MID with no installed graph — are
// compacted to pkts[n:] and remain owned by the caller. The
// partition is in place and allocation-free.
func (s *Server) InjectBatch(pkts []*packet.Packet) int {
	if len(pkts) == 0 {
		return 0
	}
	n, start, cur := 0, 0, s.ShardOf(pkts[0])
	for i := 1; i <= len(pkts); i++ {
		next := 0
		if i < len(pkts) {
			if next = s.ShardOf(pkts[i]); next == cur {
				continue
			}
		}
		sh := s.shards[cur]
		sh.ingress.Add(uint64(i - start))
		// Earlier runs' rejects sit in pkts[n:start]; move this run's
		// accepted packets in front of them.
		k := sh.inject(pkts[start:i])
		for j := 0; j < k; j++ {
			promote(pkts, n+j, start+j)
		}
		n += k
		start, cur = i, next
	}
	return n
}

// promote moves pkts[i] to index n <= i, shifting pkts[n:i] up one slot
// — one step of an in-place stable partition whose accepted prefix is
// pkts[:n] and whose pending rejects are pkts[n:i]. Bursts are small
// and rejects rare, so the shift (linear in the pending rejects) is
// cheaper than a scratch slice, and it is safe under concurrent
// injectors, which a shared scratch buffer would not be.
func promote(pkts []*packet.Packet, n, i int) {
	if n < i {
		p := pkts[i]
		copy(pkts[n+1:i+1], pkts[n:i])
		pkts[n] = p
	}
}

// Stats is a snapshot of server counters.
type Stats struct {
	Injected uint64
	Outputs  uint64
	Drops    uint64
	// Panics and Restarts count NF crashes caught at the runtime crash
	// boundary and the instance replacements that followed, over every
	// shard and generation, NFs a reload removed included.
	Panics   uint64
	Restarts uint64
	// Copies and CopiedBytes quantify the §6.3.1 resource overhead.
	Copies      uint64
	CopiedBytes uint64
	MergeErrors uint64
	// MergerLoad is the tails each shard's joins accepted, one entry per
	// shard (§6.3.3's merger load, with the flow hash splitting packets
	// over the shards' tables).
	MergerLoad []uint64
	// ShardIngress is the per-shard dispatched-packet count (nil on an
	// unsharded server) — the RSS dispatch balance.
	ShardIngress []uint64
	// Pool reports buffer pool activity (whole-pool totals; partitions
	// roll up).
	Pool mempool.Stats
}

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Injected:    s.injected.Value(),
		Outputs:     s.outCount.Value(),
		Drops:       s.drops.Value(),
		Copies:      s.copies.Value(),
		CopiedBytes: s.copiedB.Value(),
		MergeErrors: s.mergeErrs.Value(),
		Pool:        s.pool.Stats(),
		Panics:      s.panics.Load(),
		Restarts:    s.restarts.Load(),
	}
	for _, sh := range s.shards {
		st.MergerLoad = append(st.MergerLoad, sh.joinTails.Value())
		if s.sharded() {
			st.ShardIngress = append(st.ShardIngress, sh.ingress.Value())
		}
	}
	return st
}

// pollState brings the scrape-time series up to date: nfp_nf_healthy of
// every NF the dispatch maps reach, the nfp_nf_state_* series of every
// table-backed one, and nfp_classifier_cache_slots. It runs at scrape
// time (Registry.OnSnapshot), so the packet path pays nothing for them.
func (s *Server) pollState() {
	s.classifier.pollCache()
	for _, sh := range s.shards {
		for _, pr := range *sh.plans.Load() {
			for _, n := range pr.rts {
				for i := range n.nfs {
					var healthy int64
					if !n.nfs[i].panicked.Load() {
						healthy = 1
					}
					n.nfs[i].healthyG.Set(healthy)
				}
			}
		}
	}
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	for _, ms := range s.stateful {
		for _, m := range ms {
			m.poll()
		}
	}
}

// forgetState stops polling runtimes that are going away — retired, or
// built for an install that failed — after one last reading, so their
// counters end on the final counts and their NF instances can be
// collected. Their gauges then read 0: no instance holds that state any
// more. A successor that continues the series publishes its own at the
// next scrape, which polls before it reads.
func (s *Server) forgetState(prs []*planRuntime) {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	for _, pr := range prs {
		for _, m := range s.stateful[pr] {
			m.poll()
			m.entries.Set(0)
			m.bytes.Set(0)
		}
		delete(s.stateful, pr)
	}
}

// Telemetry returns the server's metrics registry (for serving
// /metrics or snapshotting after a run).
func (s *Server) Telemetry() *telemetry.Registry { return s.tel }

// Tracer returns the per-packet path tracer, nil unless
// Config.TraceSampleRate enabled it.
func (s *Server) Tracer() *telemetry.Tracer { return s.tracer }

// NodeRuntime returns the NF instance executing a graph node on shard
// 0, for state inspection in tests and examples.
func (s *Server) NodeRuntime(mid uint32, node graph.NF) (nf.NF, bool) {
	pr := (*s.shards[0].plans.Load())[mid]
	if pr == nil {
		return nil, false
	}
	for _, n := range pr.rts {
		for i := range n.nfs {
			if n.nfs[i].plan.NF == node {
				return n.nfs[i].inst(), true
			}
		}
	}
	return nil, false
}
