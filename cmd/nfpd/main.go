// nfpd compiles a policy, brings up the NFP dataplane, pushes synthetic
// traffic through the compiled service graph, and reports measured
// counters — a one-command demonstration of the full pipeline.
//
// Usage:
//
//	nfpd -chain ids,monitor,lb -packets 20000
//	nfpd -policy chain.pol -packets 50000 -size dc
//	nfpd -chain monitor,firewall -baseline onvm
//	nfpd -chain ids,monitor,lb -telemetry-addr :9090 -trace-sample 64
//	nfpd -chain ids,monitor,lb -diagnose-interval 1s -slo-p99 2ms -zipf 1.3
//	nfpd -chain vpn,monitor,firewall -reload -telemetry-addr :9090
//
// With -telemetry-addr the process keeps serving metrics after the
// traffic run finishes, until interrupted. With -reload, SIGHUP
// recompiles the policy and hot-swaps it into the running dataplane
// with zero downtime (a new config generation; old in-flight packets
// drain on their original plan); /debug/config reports the generation
// history. nfpd exits non-zero when the buffer pool leaked.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nfp/internal/core"
	"nfp/internal/dataplane"
	"nfp/internal/experiments"
	"nfp/internal/faultinject"
	"nfp/internal/graph"
	"nfp/internal/nf"
	"nfp/internal/nfa"
	"nfp/internal/packet"
	"nfp/internal/pcap"
	"nfp/internal/policy"
	"nfp/internal/telemetry"
	"nfp/internal/telemetry/diagnose"
	"nfp/internal/telemetry/flightrec"
	"nfp/internal/trafficgen"
)

func main() {
	leak := run()
	if leak != 0 {
		fmt.Fprintf(os.Stderr, "nfpd: pool leak: %d buffers still in use\n", leak)
		os.Exit(1)
	}
}

// run executes the selected mode and returns the pool-leak gauge (the
// process exit gate). It, not main, owns the deferred cleanups so they
// survive the exit-code decision.
func run() int {
	// Dataplane settings bind straight into the Config the run hands to
	// dataplane.New; flags that need translating are applied below.
	var opts experiments.LiveOptions
	cfg := &opts.Config
	policyPath := flag.String("policy", "", "policy file")
	chain := flag.String("chain", "", "comma-separated sequential chain")
	packets := flag.Int("packets", 20000, "number of packets to push")
	size := flag.String("size", "64", "frame size in bytes, or 'dc' for the datacenter mixture")
	flows := flag.Int("flows", 64, "distinct flows")
	seed := flag.Int64("seed", 0, "traffic generator seed (0 = derive from the clock; set for reproducible runs)")
	baseline := flag.String("baseline", "", "run a baseline instead: 'onvm' or 'rtc'")
	pcapPath := flag.String("pcap", "", "capture output packets to this pcap file")
	idsRules := flag.String("ids-rules", "", "Snort-subset rule file; replaces the built-in IDS signatures")
	noParallel := flag.Bool("no-parallel", false, "compile sequentially (NFP compatibility mode)")
	telemetryAddr := flag.String("telemetry-addr", "", "serve /metrics and /debug/telemetry on this address (keeps serving after the run until interrupted)")
	flag.IntVar(&cfg.TraceSampleRate, "trace-sample", 0,
		"observe ~1/N packets — hop-by-hop spans, end-to-end latency, heavy-hitter flows (rounded down to a power of two; 0 = off, or 64 when -diagnose-interval, -slo-p99 or -reload need samples)")
	flag.IntVar(&cfg.TraceCapacity, "trace-buf", 0, "tracer span ring capacity in events (0 = default 4096)")
	fusion := flag.Bool("fusion", true,
		"fuse sequential graph segments into run-to-completion runtimes (false = one ring per NF)")
	flag.IntVar(&cfg.Burst, "burst", dataplane.DefaultBurst,
		"dataplane burst size: packets moved per ring operation (1 = every hand-off a burst of one)")
	flag.IntVar(&cfg.Shards, "shards", dataplane.DefaultShards(),
		"flow-sharded execution domains: the whole plan replicated per shard, packets dispatched by 5-tuple hash (1 = classic single-shard layout; default = cores, capped at 8)")
	ringPolicy := flag.String("ring-policy", "block",
		"receive-ring backpressure policy: block (lossless), drop-tail, or shed-lowest-priority")
	flag.IntVar(&cfg.SpinLimit, "spin-limit", dataplane.DefaultSpinLimit,
		"bounded-spin yields before a full-ring producer parks or sheds")
	flag.IntVar(&cfg.RingSize, "ring-size", 0,
		"per-NF receive ring capacity (0 = dataplane default; small rings surface overload sooner)")
	diagInterval := flag.Duration("diagnose-interval", 0,
		"sample telemetry at this interval for live bottleneck diagnosis (0 = off; serves /debug/health and /debug/topflows)")
	sloP99 := flag.Duration("slo-p99", 0,
		"per-chain p99 latency objective for the health verdict (0 = no SLO; implies packet sampling)")
	topK := flag.Int("topk", 16, "heavy-hitter sketch capacity (flows tracked by /debug/topflows)")
	zipf := flag.Float64("zipf", 0,
		"skew the flow mix with a Zipf(s) popularity draw instead of round-robin (0 = round-robin; try 1.2-2)")
	reload := flag.Bool("reload", false,
		"hot-swap the recompiled policy on SIGHUP (zero-downtime config generations; implies packet sampling)")
	flightSpool := flag.String("flight-spool", "",
		"spool anomaly-triggered incident bundles (event-ring tail, metrics, diagnosis) into this directory")
	flightInterval := flag.Duration("flight-interval", 30*time.Second,
		"minimum interval between incident bundles (rate limit; excess triggers are counted, not spooled)")
	panicNF := flag.String("panic-nf", "",
		"fault injection: 'name@N' panics that NF on its Nth packet (e.g. monitor@5000); the supervisor restarts it clean")
	flag.Parse()

	if *seed == 0 {
		*seed = time.Now().UnixNano()
	}
	pol, names, err := loadPolicy(*policyPath, *chain)
	if err != nil {
		fail(err)
	}
	sizes, err := parseSizesSeeded(*size, *seed)
	if err != nil {
		fail(err)
	}
	gen := trafficgen.New(trafficgen.Config{Flows: *flows, Sizes: sizes, Seed: *seed, Zipf: *zipf})

	switch *baseline {
	case "onvm":
		res, err := experiments.RunLiveONVM(names, *packets, gen)
		if err != nil {
			fail(err)
		}
		report("OpenNetVM baseline: "+strings.Join(names, " -> "), res)
		return res.PoolLeak
	case "rtc":
		res, err := experiments.RunLiveRTC(names, 1, *packets, gen)
		if err != nil {
			fail(err)
		}
		report("run-to-completion baseline: "+strings.Join(names, " -> "), res)
		return res.PoolLeak
	case "":
	default:
		fail(fmt.Errorf("unknown baseline %q (onvm, rtc)", *baseline))
	}

	if *idsRules != "" {
		f, err := os.Open(*idsRules)
		if err != nil {
			fail(err)
		}
		rules, err := nf.ParseIDSRules(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		cfg.Registry = nf.NewRegistry()
		cfg.Registry.MustRegister(nfa.NFIDS, func() (nf.NF, error) { return nf.NewRuleIDS(rules), nil })
		fmt.Printf("ids rules:         %d loaded from %s\n", len(rules), *idsRules)
	}

	res, err := core.Compile(pol, nil, core.Options{NoParallelism: *noParallel})
	if err != nil {
		fail(err)
	}
	fmt.Printf("compiled graph:    %s\n", res.Graph)
	fmt.Printf("equivalent length: %d of %d NFs, %d copies/packet\n",
		graph.EquivalentLength(res.Graph), graph.NFCount(res.Graph), graph.TotalCopies(res.Graph))
	fmt.Printf("seed:              %d (rerun with -seed %d to reproduce)\n", *seed, *seed)
	for _, w := range res.Warnings {
		fmt.Printf("warning:           %s\n", w)
	}

	if cfg.RingPolicy, err = dataplane.ParseBackpressurePolicy(*ringPolicy); err != nil {
		fail(err)
	}
	if !*fusion {
		cfg.Fusion = dataplane.FusionOff
	}
	if *panicNF != "" {
		name, call, err := parsePanicNF(*panicNF)
		if err != nil {
			fail(err)
		}
		opts.WrapNF = func(n string, inst nf.NF) nf.NF {
			if n == name {
				return faultinject.NewPanicNF(inst, call)
			}
			return inst
		}
		fmt.Printf("fault injection:   %s panics on packet %d (supervisor restarts it)\n", name, call)
	}
	if cfg.RingPolicy == dataplane.BPShedLowestPriority {
		// Rank NFs from the policy's Priority rules so only the
		// lowest-ranked rings shed under overload.
		cfg.NodePriority = pol.PriorityRanks()
	}
	fmt.Printf("burst size:        %d\n", cfg.Burst)
	fmt.Printf("shards:            %d\n", cfg.Shards)
	fmt.Printf("execution engine:  fusion %s\n", cfg.Fusion)
	fmt.Printf("ring policy:       %s (spin limit %d)\n", cfg.RingPolicy, cfg.SpinLimit)
	if *pcapPath != "" {
		f, err := os.Create(*pcapPath)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		w, err := pcap.NewWriter(f, 0)
		if err != nil {
			fail(err)
		}
		opts.Tap = func(p *packet.Packet) { _ = w.WritePacket(time.Now(), p.Bytes()) }
		defer func() { fmt.Printf("  pcap:            %d packets -> %s\n", w.Packets(), *pcapPath) }()
	}
	var diag *diagnose.Diagnoser
	var sketch *diagnose.TopK
	if *telemetryAddr != "" || *diagInterval > 0 || *flightSpool != "" {
		// The registry outlives the run so /metrics stays truthful after
		// the traffic stops.
		cfg.Telemetry = telemetry.NewRegistry()
	}
	if cfg.TraceSampleRate == 0 && (*diagInterval > 0 || *sloP99 > 0 || *reload) {
		// The diagnosis layer's sketch and SLO verdicts, and the reload
		// headline number (latency across a swap), are all read off the
		// sampled packets.
		cfg.TraceSampleRate = 64
	}
	if *diagInterval > 0 {
		// Diagnosis layers on the registry: the classifier feeds the
		// heavy-hitter sketch, the delivery path records e2e latency —
		// both for the sampled packets — and a background sampler turns
		// snapshot deltas into utilization and health verdicts.
		sketch = diagnose.NewTopK(*topK)
		cfg.FlowAccount = sketch
		diag = diagnose.New(diagnose.Config{
			Registry:     cfg.Telemetry,
			Interval:     *diagInterval,
			SLOTargetP99: *sloP99,
			TopK:         sketch,
		})
		fmt.Printf("diagnosis:         sampling every %v (1/%d packets observed, top-%d sketch)\n",
			*diagInterval, cfg.TraceSampleRate, *topK)
	}
	var srvRef *dataplane.Server
	var snap *flightrec.Snapshotter
	serveHTTP := *telemetryAddr != "" || *diagInterval > 0 || *flightSpool != ""
	if serveHTTP || *reload {
		// The HTTP server binds from the OnServer hook — after the
		// dataplane starts (so the handler can reach its tracer) but
		// before the first packet is injected, so the endpoint observes
		// the run live. The SIGHUP reload watcher arms here too: hot
		// swaps are only meaningful against a started dataplane.
		bindAddr := *telemetryAddr
		if bindAddr == "" {
			bindAddr = "127.0.0.1:0"
		}
		opts.OnServer = func(s *dataplane.Server) {
			srvRef = s
			if *reload {
				watchSIGHUP(s, *policyPath, *chain, *noParallel)
				fmt.Printf("reload:            armed (kill -HUP %d re-compiles the policy and hot-swaps it)\n", os.Getpid())
			}
			if !serveHTTP {
				return
			}
			if *flightSpool != "" {
				// Incident sources are self-contained closures: the
				// bundle is a point-in-time dump of everything an operator
				// would otherwise curl endpoint by endpoint.
				srcs := []flightrec.Source{
					{Name: "config", Collect: func() any { return s.ConfigInfo() }},
					{Name: "criticalpath", Collect: func() any {
						return telemetry.BuildCriticalPathReport(s.Tracer().Events())
					}},
				}
				if diag != nil {
					srcs = append(srcs, flightrec.Source{Name: "health",
						Collect: func() any { return diag.Report() }})
				}
				if sketch != nil {
					srcs = append(srcs, flightrec.Source{Name: "topflows",
						Collect: func() any { return sketch.Top(sketch.K()) }})
				}
				var err error
				snap, err = flightrec.NewSnapshotter(flightrec.SnapConfig{
					Dir:         *flightSpool,
					MinInterval: *flightInterval,
					Recorder:    s.FlightRecorder(),
					Registry:    s.Telemetry(),
					Sources:     srcs,
					Goroutines:  true,
					Build:       s.BuildInfo(),
				})
				if err != nil {
					fail(err)
				}
				// NF panics and reload failures trigger from inside the
				// recorder; health worsening triggers via the diagnoser.
				s.FlightRecorder().SetOnIncident(func(reason string) { snap.Trigger(reason) })
				fmt.Printf("flight recorder:   incident spool %s (min interval %v)\n", *flightSpool, *flightInterval)
			}
			if diag != nil {
				diag.SetRecorder(s.FlightRecorder())
				diag.SetOnTransition(func(old, new string, reasons []string) {
					snap.Trigger("health-" + new)
				})
			}
			extra := map[string]http.Handler{
				"/debug/config":         configHandler(s),
				"/debug/flightrecorder": flightrec.Handler(s.FlightRecorder(), s.Telemetry(), snap, s.BuildInfo()),
			}
			if diag != nil {
				for path, h := range diag.Handlers() {
					extra[path] = h
				}
				diag.SampleNow() // open the window before the first packet
				diag.Start()
			}
			_, bound, err := telemetry.ServeWith(bindAddr, cfg.Telemetry, s.Tracer(), extra)
			if err != nil {
				fail(err)
			}
			fmt.Printf("telemetry:         http://%s/metrics (and /debug/telemetry, /debug/spans, /debug/criticalpath, /debug/config, /debug/flightrecorder, /debug/pprof)\n", bound)
			if diag != nil {
				fmt.Printf("diagnosis:         http://%s/debug/health and /debug/topflows\n", bound)
			}
		}
	}
	live, err := experiments.RunLiveGraphOpts(res.Graph, *packets, gen, opts)
	if err != nil {
		fail(err)
	}
	report("NFP dataplane", live)
	if len(live.MergerLoad) > 0 {
		fmt.Printf("  merger load:     %v\n", live.MergerLoad)
	}
	if live.Copies > 0 {
		fmt.Printf("  copies:          %d (%d bytes total)\n", live.Copies, live.CopiedBytes)
	}
	if cfg.TraceSampleRate > 0 {
		fmt.Printf("  traced packets:  %d hop events retained\n", len(live.Traces))
	}
	if *reload && srvRef != nil {
		ci := srvRef.ConfigInfo()
		fmt.Printf("  config gen:      %d (%d reloads, %d generations recorded)\n",
			ci.Generation, ci.Reloads, len(ci.History))
	}
	if diag != nil {
		diag.SampleNow() // close the window on the run's final state
		reportHealth(diag)
	}
	if *telemetryAddr != "" {
		fmt.Printf("telemetry:         serving until interrupted (Ctrl-C to exit)\n")
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
	}
	if diag != nil {
		diag.Stop()
	}
	snap.Stop()
	return live.PoolLeak
}

// parsePanicNF parses a -panic-nf 'name@N' spec.
func parsePanicNF(s string) (string, uint64, error) {
	name, at, ok := strings.Cut(s, "@")
	if !ok || name == "" {
		return "", 0, fmt.Errorf("-panic-nf wants name@N (e.g. monitor@5000), got %q", s)
	}
	call, err := strconv.ParseUint(at, 10, 64)
	if err != nil || call == 0 {
		return "", 0, fmt.Errorf("-panic-nf %q: packet number must be a positive integer", s)
	}
	if _, ok := nfa.LookupProfile(name); !ok {
		return "", 0, fmt.Errorf("-panic-nf: unknown NF %q", name)
	}
	return name, call, nil
}

// watchSIGHUP arms the zero-downtime reload path: every SIGHUP
// re-reads and re-compiles the policy and hot-swaps it into the
// running dataplane as a new config generation. Failures — a policy
// that no longer parses, a compile error, a server already stopped —
// are reported on stderr and recorded as reload_failed flight-recorder
// events (which trigger an incident snapshot when a spool is armed): by
// this watcher when the policy never reached the server, by
// Server.Reload itself otherwise. The current generation keeps
// forwarding — a reload can never take traffic down.
func watchSIGHUP(s *dataplane.Server, policyPath, chain string, noParallel bool) {
	hup := make(chan os.Signal, 4)
	signal.Notify(hup, syscall.SIGHUP)
	reloadFailed := func(err error) {
		fmt.Fprintf(os.Stderr, "nfpd: reload: %v\n", err)
		rec := s.FlightRecorder()
		rec.Event(flightrec.Note{
			Kind: flightrec.KindReloadFailed, Gen: s.Generation(),
			Detail: rec.Intern(err.Error()),
		})
	}
	go func() {
		for range hup {
			pol, _, err := loadPolicy(policyPath, chain)
			if err != nil {
				reloadFailed(err)
				continue
			}
			compiled, err := core.Compile(pol, nil, core.Options{NoParallelism: noParallel})
			if err != nil {
				reloadFailed(err)
				continue
			}
			if err := s.Reload(1, compiled.Graph); err != nil {
				fmt.Fprintf(os.Stderr, "nfpd: reload: %v\n", err)
				continue
			}
			fmt.Printf("reload:            generation %d live (%s)\n", s.Generation(), compiled.Graph)
		}
	}()
}

// configHandler serves /debug/config: the live config generation,
// reload history, and the conservation counters proving no packet was
// lost across swaps.
func configHandler(s *dataplane.Server) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.ConfigInfo())
	})
}

// reportHealth prints the end-of-run diagnosis verdict: overall health,
// the reasons it is not ok, and the utilization ranking.
func reportHealth(d *diagnose.Diagnoser) {
	rep := d.Report()
	fmt.Printf("\nhealth: %s (window %.1fs, %d samples)\n", rep.State, rep.WindowSeconds, rep.Samples)
	for _, r := range rep.Reasons {
		fmt.Printf("  reason:          %s\n", r)
	}
	for i, b := range rep.Bottlenecks {
		if i == 3 {
			fmt.Printf("  ... (%d more NFs)\n", len(rep.Bottlenecks)-i)
			break
		}
		fmt.Printf("  bottleneck #%d:   %s\n", i+1, b.Verdict)
	}
	for _, s := range rep.SLO {
		status := "met"
		if !s.Met {
			status = "MISSED"
		}
		fmt.Printf("  slo mid=%s:       p99 %.1fµs vs target %.1fµs — %s (burn %.1fx)\n",
			s.MID, float64(s.WindowP99NS)/1e3, float64(s.TargetP99NS)/1e3, status, s.BurnRate)
	}
}

func report(label string, r experiments.LiveResult) {
	fmt.Printf("\n%s\n", label)
	fmt.Printf("  outputs/drops:   %d / %d\n", r.Outputs, r.Drops)
	fmt.Printf("  mean latency:    %.1f µs (this host)\n", r.MeanLatencyUS)
	fmt.Printf("  throughput:      %.3f Mpps (this host)\n", r.Mpps)
	if r.Sheds > 0 {
		fmt.Printf("  ring sheds:      %d (backpressure policy)\n", r.Sheds)
	}
	if r.Panics > 0 {
		fmt.Printf("  NF panics:       %d (%d restarts)\n", r.Panics, r.Restarts)
	}
	if r.PoolLeak != 0 {
		fmt.Printf("  POOL LEAK:       %d buffers\n", r.PoolLeak)
	}
}

func loadPolicy(path, chain string) (policy.Policy, []string, error) {
	switch {
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return policy.Policy{}, nil, err
		}
		defer f.Close()
		pol, err := policy.Parse(f)
		if err != nil {
			return policy.Policy{}, nil, err
		}
		return pol, pol.NFs(), nil
	case chain != "":
		names := strings.Split(chain, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
			if _, ok := nfa.LookupProfile(names[i]); !ok {
				return policy.Policy{}, nil, fmt.Errorf("unknown NF %q", names[i])
			}
		}
		return policy.FromChain(names...), names, nil
	}
	return policy.Policy{}, nil, fmt.Errorf("provide -policy FILE or -chain nf1,nf2,...")
}

func parseSizes(s string) (trafficgen.SizeDist, error) {
	return parseSizesSeeded(s, time.Now().UnixNano())
}

func parseSizesSeeded(s string, seed int64) (trafficgen.SizeDist, error) {
	if s == "dc" {
		return trafficgen.NewDataCenter(seed), nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 64 || n > 1500 {
		return nil, fmt.Errorf("size must be 64..1500 or 'dc'")
	}
	return trafficgen.Fixed(n), nil
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "nfpd: %v\n", err)
	os.Exit(1)
}
