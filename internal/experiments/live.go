package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"time"

	"nfp/internal/baseline/onvm"
	"nfp/internal/baseline/rtc"
	"nfp/internal/core"
	"nfp/internal/dataplane"
	"nfp/internal/graph"
	"nfp/internal/mempool"
	"nfp/internal/nf"
	"nfp/internal/nfa"
	"nfp/internal/packet"
	"nfp/internal/policy"
	"nfp/internal/stats"
	"nfp/internal/telemetry"
	"nfp/internal/trafficgen"
)

// LiveResult summarizes one live dataplane run.
type LiveResult struct {
	Outputs, Drops uint64
	// Sheds counts packets lost to the ring backpressure policy;
	// Panics/Restarts count NF crashes and supervisor recoveries.
	Sheds         uint64
	Panics        uint64
	Restarts      uint64
	Copies        uint64
	CopiedBytes   uint64
	MeanLatencyUS float64
	Mpps          float64
	MergerLoad    []uint64
	OutputsByPID  map[uint64][]byte // PID → final wire bytes (small runs only)
	// PoolLeak is the mempool's in-use gauge after the drained stop —
	// any non-zero value is a buffer leak.
	PoolLeak int
	// Telemetry is the end-of-run metric snapshot (nil for baselines,
	// which predate the registry).
	Telemetry *telemetry.Snapshot
	// Traces holds the sampled per-packet hop records when
	// Config.TraceSampleRate was set.
	Traces []telemetry.TraceEvent
}

// LiveOptions tunes RunLiveGraphOpts beyond the required arguments.
type LiveOptions struct {
	// Config is handed to dataplane.New as is — every dataplane setting
	// is declared there and nowhere else. The harness fills in only
	// what a zero value leaves open: PoolSize defaults to 1024 buffers
	// per shard, so each partition keeps the single-shard headroom.
	// Config.Burst also sets the injection burst (a DPDK driver handing
	// up rx bursts; 0 injects packet by packet). Reusing one
	// Config.Telemetry registry across runs panics on duplicate series —
	// give each run its own.
	Config dataplane.Config
	// KeepOutputs retains every output packet's bytes by PID (small
	// runs only).
	KeepOutputs bool
	// Tap, if non-nil, sees every completed packet before it is freed —
	// the hook behind nfpd's pcap capture.
	Tap func(*packet.Packet)
	// OnServer, if non-nil, observes the server after Start and before
	// traffic — nfpd uses it to expose the live registry over HTTP.
	OnServer func(*dataplane.Server)
	// WrapNF, if non-nil, wraps every NF instance at install time —
	// nfpd's -panic-nf fault injection hooks in here. The wrapper
	// applies only to the initial instances: supervisor restarts build
	// fresh unwrapped instances from the registry, so an injected
	// crash heals exactly like a real one.
	WrapNF func(name string, inst nf.NF) nf.NF
}

// RunLiveGraph executes a service graph on the real dataplane for n
// packets from gen and returns measured counters.
func RunLiveGraph(g graph.Node, n int, gen *trafficgen.Generator, keepOutputs bool) (LiveResult, error) {
	return RunLiveGraphOpts(g, n, gen, LiveOptions{KeepOutputs: keepOutputs})
}

// RunLiveGraphOpts executes a service graph on the real dataplane for n
// packets from gen with full observability control.
func RunLiveGraphOpts(g graph.Node, n int, gen *trafficgen.Generator, opts LiveOptions) (LiveResult, error) {
	cfg := opts.Config
	if cfg.PoolSize == 0 {
		cfg.PoolSize = 1024 * max(cfg.Shards, 1)
	}
	srv := dataplane.New(cfg)
	var provide func(shard int, node graph.NF) nf.NF
	if opts.WrapNF != nil {
		reg := cfg.Registry
		if reg == nil {
			reg = nf.NewRegistry()
		}
		provide = func(_ int, node graph.NF) nf.NF {
			inst, err := reg.New(node.Name)
			if err != nil {
				return nil // buildRuntime falls back to the server registry
			}
			return opts.WrapNF(node.Name, inst)
		}
	}
	if err := srv.AddGraphProvide(1, g, provide); err != nil {
		return LiveResult{}, err
	}
	if err := srv.Start(); err != nil {
		return LiveResult{}, err
	}
	if opts.OnServer != nil {
		opts.OnServer(srv)
	}
	var byPID map[uint64][]byte
	if opts.KeepOutputs {
		byPID = map[uint64][]byte{}
	}
	res, err := runTraffic(srv, srv.InjectBatch, n, max(cfg.Burst, 1), gen, func(p *packet.Packet) {
		if byPID != nil {
			byPID[p.Meta.PID] = append([]byte(nil), p.Bytes()...)
		}
		if opts.Tap != nil {
			opts.Tap(p)
		}
	})
	if err != nil {
		return res, err
	}
	st := srv.Stats()
	res.Outputs = st.Outputs
	res.Drops = st.Drops
	res.Sheds = st.Sheds
	res.Panics = st.Panics
	res.Restarts = st.Restarts
	res.Copies = st.Copies
	res.CopiedBytes = st.CopiedBytes
	res.MergerLoad = st.MergerLoad
	res.OutputsByPID = byPID
	snap := srv.Telemetry().Snapshot()
	res.Telemetry = &snap
	res.Traces = srv.Tracer().Events()
	return res, nil
}

// platform is what the traffic loop needs of a live server: the NFP
// dataplane and both baselines provide it.
type platform interface {
	Pool() *mempool.Pool
	Output() <-chan *packet.Packet
	Stop()
}

// runTraffic pushes n packets from gen through a started platform in
// bursts of up to burst — allocate from the pool, build, stamp, inject —
// while a collector drains the output channel (seen, if non-nil,
// observes each packet before it is freed), then stops the platform and
// fills in the measurements every platform shares. inject returns how
// many packets of the burst it accepted; a short count aborts the run.
// Short bursts under transient pool pressure are injected as-is.
func runTraffic(srv platform, inject func([]*packet.Packet) int, n, burst int, gen *trafficgen.Generator, seen func(*packet.Packet)) (LiveResult, error) {
	lat := stats.NewLatency(n)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := range srv.Output() {
			lat.Record(time.Now().UnixNano() - p.Ingress)
			if seen != nil {
				seen(p)
			}
			p.Free()
		}
	}()
	var th stats.Throughput
	th.StartNow()
	batch := make([]*packet.Packet, burst)
	var err error
	for i := 0; i < n && err == nil; {
		got := srv.Pool().AllocBatch(batch[:min(burst, n-i)])
		if got == 0 {
			runtime.Gosched()
			continue
		}
		now := time.Now().UnixNano()
		for _, p := range batch[:got] {
			packet.BuildInto(p, gen.Next())
			p.Ingress = now
		}
		if acc := inject(batch[:got]); acc != got {
			for _, p := range batch[acc:got] {
				p.Free()
			}
			err = fmt.Errorf("classification failed")
		}
		i += got
	}
	srv.Stop()
	th.StopNow()
	<-done
	return LiveResult{
		MeanLatencyUS: lat.MeanMicros(),
		Mpps:          float64(n) / th.Elapsed().Seconds() / 1e6,
		PoolLeak:      srv.Pool().InUse(),
	}, err
}

// each adapts a baseline's scalar, never-rejecting Inject to the burst
// form runTraffic drives.
func each(inject func(*packet.Packet)) func([]*packet.Packet) int {
	return func(pkts []*packet.Packet) int {
		for _, p := range pkts {
			inject(p)
		}
		return len(pkts)
	}
}

// RunLiveONVM executes the centralized-switch baseline.
func RunLiveONVM(chain []string, n int, gen *trafficgen.Generator) (LiveResult, error) {
	srv, err := onvm.New(onvm.Config{PoolSize: 1024}, chain...)
	if err != nil {
		return LiveResult{}, err
	}
	if err := srv.Start(); err != nil {
		return LiveResult{}, err
	}
	res, err := runTraffic(srv, each(srv.Inject), n, 1, gen, nil)
	st := srv.Stats()
	res.Outputs, res.Drops = st.Outputs, st.Drops
	return res, err
}

// RunLiveRTC executes the run-to-completion baseline.
func RunLiveRTC(chain []string, replicas, n int, gen *trafficgen.Generator) (LiveResult, error) {
	srv, err := rtc.New(rtc.Config{PoolSize: 1024, Replicas: replicas}, chain...)
	if err != nil {
		return LiveResult{}, err
	}
	if err := srv.Start(); err != nil {
		return LiveResult{}, err
	}
	res, err := runTraffic(srv, each(srv.Inject), n, 1, gen, nil)
	st := srv.Stats()
	res.Outputs, res.Drops = st.Outputs, st.Drops
	return res, err
}

// LiveValidation runs the real dataplane: the §6.4 result-correctness
// replay, live single-host throughput of the three platforms, and the
// measured copy overhead of the west-east graph.
func LiveValidation() []Table {
	return []Table{
		liveCorrectness(),
		liveThroughput(),
		liveOverhead(),
	}
}

// liveCorrectness replays identical tagged packets through the
// sequential chain and the optimized NFP graph and compares every
// output byte-for-byte (§6.4's verification methodology).
func liveCorrectness() Table {
	t := Table{
		ID:     "live-correctness",
		Title:  "result correctness: NFP graph output ≡ sequential chain output (§6.4)",
		Header: []string{"chain", "packets", "outputs seq", "outputs NFP", "byte-identical", "drops agree"},
	}
	chains := [][]string{
		{nfa.NFIDS, nfa.NFMonitor, nfa.NFLB},
		{nfa.NFVPN, nfa.NFMonitor, nfa.NFFirewall, nfa.NFLB},
		{nfa.NFMonitor, nfa.NFFirewall},
	}
	const n = 300
	for _, chain := range chains {
		seqRes, err1 := core.Compile(policy.FromChain(chain...), nil, core.Options{NoParallelism: true})
		parRes, err2 := core.Compile(policy.FromChain(chain...), nil, core.Options{})
		if err1 != nil || err2 != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("%v: compile errors %v %v", chain, err1, err2))
			continue
		}
		genA := trafficgen.New(trafficgen.Config{Flows: 16, Seed: 77, Sizes: trafficgen.Fixed(256)})
		genB := trafficgen.New(trafficgen.Config{Flows: 16, Seed: 77, Sizes: trafficgen.Fixed(256)})
		a, errA := RunLiveGraph(seqRes.Graph, n, genA, true)
		b, errB := RunLiveGraph(parRes.Graph, n, genB, true)
		if errA != nil || errB != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("%v: run errors %v %v", chain, errA, errB))
			continue
		}
		identical := comparePIDOutputs(a.OutputsByPID, b.OutputsByPID, chain)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(chain), fmt.Sprint(n),
			fmt.Sprint(a.Outputs), fmt.Sprint(b.Outputs),
			fmt.Sprint(identical),
			fmt.Sprint(a.Drops == b.Drops),
		})
	}
	return t
}

// comparePIDOutputs checks that both runs produced the same packet set
// with identical bytes. Chains containing the VPN are compared on
// length and header fields only: AES-CTR keying is per-instance
// sequence numbered, and parallel delivery can reorder which sequence
// number a packet gets — the paper's replay has the same property, so
// we compare the structure the merge must preserve.
func comparePIDOutputs(a, b map[uint64][]byte, chain []string) bool {
	if len(a) != len(b) {
		return false
	}
	hasVPN := false
	for _, n := range chain {
		if n == nfa.NFVPN {
			hasVPN = true
		}
	}
	pids := make([]uint64, 0, len(a))
	for pid := range a {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	for _, pid := range pids {
		pa, ok := b[pid]
		if !ok {
			return false
		}
		if hasVPN {
			if len(pa) != len(a[pid]) {
				return false
			}
			// Headers (up to the AH ICV) must match exactly.
			if !bytes.Equal(pa[:46], a[pid][:46]) {
				return false
			}
			continue
		}
		if !bytes.Equal(pa, a[pid]) {
			return false
		}
	}
	return true
}

// liveThroughput measures single-host packets/sec of the three
// platforms for a 3-firewall chain.
func liveThroughput() Table {
	chain := chainOf(nfa.NFFirewall, 3)
	gen := func() *trafficgen.Generator {
		return trafficgen.New(trafficgen.Config{Flows: 32, Seed: 3})
	}
	const n = 20000
	t := Table{
		ID:     "live-throughput",
		Title:  "live single-host throughput, 3-firewall chain (relative; this host shares all cores)",
		Header: []string{"platform", "Mpps (this host)", "outputs", "drops", "pool leak"},
		Notes: []string{
			"absolute numbers depend on host core count; the paper's ranking (RTC > pipelining) holds per-core",
		},
	}
	// Three same-type instances cannot be named in one policy; build
	// the all-parallel graph directly (the Table 4 configuration).
	if nfp, err := RunLiveGraph(parOf(nfa.NFFirewall, 3), n, gen(), false); err == nil {
		t.Rows = append(t.Rows, []string{"NFP", f3(nfp.Mpps), fmt.Sprint(nfp.Outputs), fmt.Sprint(nfp.Drops), fmt.Sprint(nfp.PoolLeak)})
	}
	if ov, err := RunLiveONVM(chain, n, gen()); err == nil {
		t.Rows = append(t.Rows, []string{"OpenNetVM", f3(ov.Mpps), fmt.Sprint(ov.Outputs), fmt.Sprint(ov.Drops), fmt.Sprint(ov.PoolLeak)})
	}
	if rt, err := RunLiveRTC(chain, 1, n, gen()); err == nil {
		t.Rows = append(t.Rows, []string{"BESS/RTC", f3(rt.Mpps), fmt.Sprint(rt.Outputs), fmt.Sprint(rt.Drops), fmt.Sprint(rt.PoolLeak)})
	}
	return t
}

// liveOverhead measures the real copy counters of the west-east graph
// against the §6.3.1 model.
func liveOverhead() Table {
	res, _ := core.Compile(policy.FromChain(nfa.NFIDS, nfa.NFMonitor, nfa.NFLB), nil, core.Options{})
	gen := trafficgen.New(trafficgen.Config{Flows: 16, Seed: 9, Sizes: trafficgen.NewDataCenter(4)})
	const n = 5000
	t := Table{
		ID:     "live-overhead",
		Title:  "measured copy overhead, west-east graph, datacenter mix",
		Header: []string{"metric", "measured", "model/paper"},
	}
	live, err := RunLiveGraph(res.Graph, n, gen, false)
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	dist := trafficgen.NewDataCenter(4)
	copied := float64(live.CopiedBytes) / float64(live.Outputs+live.Drops)
	t.Rows = append(t.Rows, []string{"copies per packet", f2(float64(live.Copies) / float64(n)), "1"})
	t.Rows = append(t.Rows, []string{"copied bytes per packet", f1(copied), "54 (hdr) / paper 64"})
	t.Rows = append(t.Rows, []string{"overhead vs mean size", pct(copied / dist.Mean()), "8.8% (paper)"})
	t.Rows = append(t.Rows, []string{"merger load split", fmt.Sprint(live.MergerLoad), "≈even"})
	return t
}
