package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"nfp/internal/core"
	"nfp/internal/dataplane"
	"nfp/internal/experiments"
	"nfp/internal/policy"
	"nfp/internal/telemetry"
	"nfp/internal/trafficgen"
)

// metricsCmd implements `nfpinspect metrics`: snapshot the telemetry of
// a running nfpd (-addr) or of a fresh in-process run (-chain), and
// pretty-print it.
func metricsCmd(args []string) {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	addr := fs.String("addr", "", "scrape a running server's /debug/telemetry at this host:port")
	chain := fs.String("chain", "", "run this comma-separated chain in-process and snapshot it")
	packets := fs.Int("packets", 2000, "packets for the in-process run")
	seed := fs.Int64("seed", 1, "traffic seed for the in-process run")
	var cfg dataplane.Config // of the in-process run
	fs.IntVar(&cfg.TraceSampleRate, "trace-sample", 0, "trace ~1/N packets during the in-process run")
	fs.IntVar(&cfg.Shards, "shards", 1, "flow-sharded execution domains for the in-process run (1 = unsharded)")
	asJSON := fs.Bool("json", false, "emit the raw JSON dump instead of the table")
	watch := fs.Duration("watch", 0, "re-poll -addr at this interval and print counter deltas (requires -addr)")
	_ = fs.Parse(args)

	if *watch > 0 {
		if *addr == "" {
			fmt.Fprintln(os.Stderr, "nfpinspect metrics: -watch requires -addr")
			os.Exit(2)
		}
		watchMetrics(*addr, *watch)
		return
	}

	var dump telemetry.Dump
	switch {
	case *addr != "":
		dump = fetchDump(*addr)
	case *chain != "":
		dump = runDump(*chain, *packets, *seed, cfg)
	default:
		fmt.Fprintln(os.Stderr, "usage: nfpinspect metrics (-addr HOST:PORT | -chain nf1,nf2,...) [-json]")
		os.Exit(2)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(dump); err != nil {
			metricsFail(err)
		}
		return
	}
	printDump(dump)
}

func fetchDump(addr string) telemetry.Dump {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(addr + "/debug/telemetry")
	if err != nil {
		metricsFail(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		metricsFail(fmt.Errorf("%s returned %s", addr, resp.Status))
	}
	var dump telemetry.Dump
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		metricsFail(fmt.Errorf("decoding /debug/telemetry: %w", err))
	}
	return dump
}

func runDump(chain string, packets int, seed int64, cfg dataplane.Config) telemetry.Dump {
	names := strings.Split(chain, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	res, err := core.Compile(policy.FromChain(names...), nil, core.Options{})
	if err != nil {
		metricsFail(err)
	}
	gen := trafficgen.New(trafficgen.Config{Flows: 32, Seed: seed})
	live, err := experiments.RunLiveGraphOpts(res.Graph, packets, gen, experiments.LiveOptions{Config: cfg})
	if err != nil {
		metricsFail(err)
	}
	// The banner goes to stderr so -json output stays machine-parseable.
	fmt.Fprintf(os.Stderr, "in-process run: %s, %d packets, seed %d\n\n", strings.Join(names, " -> "), packets, seed)
	return telemetry.Dump{Metrics: *live.Telemetry, Traces: live.Traces}
}

// watchMetrics re-polls a running server and prints what changed since
// the previous poll: counter deltas as per-second rates, gauge moves,
// and histogram count/p99 updates. Unchanged series stay silent, so the
// output diffs cleanly across intervals.
func watchMetrics(addr string, interval time.Duration) {
	prev := fetchDump(addr).Metrics
	prev.Sort()
	fmt.Fprintf(os.Stderr, "watching %s every %v (Ctrl-C to stop)\n", addr, interval)
	for range time.Tick(interval) {
		cur := fetchDump(addr).Metrics
		cur.Sort()
		secs := interval.Seconds()
		fmt.Printf("--- %s\n", time.Now().Format("15:04:05"))
		for _, c := range cur.Counters {
			if d := c.Value - prev.CounterValue(c.Name, labelPairs(c.Labels)...); d != 0 {
				fmt.Printf("  %-52s %+12d  (%.0f/s)\n", series(c.Name, c.Labels), d, float64(d)/secs)
			}
		}
		for _, g := range cur.Gauges {
			if g.Value != prev.GaugeValue(g.Name, labelPairs(g.Labels)...) {
				fmt.Printf("  %-52s %12d\n", series(g.Name, g.Labels), g.Value)
			}
		}
		for _, h := range cur.Histograms {
			pc := histCount(prev, h.Name, h.Labels)
			if d := h.Count - pc; d != 0 {
				fmt.Printf("  %-52s %+12d  (p99 %.1fµs)\n", series(h.Name, h.Labels), d, float64(h.P99)/1e3)
			}
		}
		prev = cur
	}
}

func labelPairs(m map[string]string) []telemetry.Label {
	out := make([]telemetry.Label, 0, len(m))
	for k, v := range m {
		out = append(out, telemetry.L(k, v))
	}
	return out
}

func histCount(s telemetry.Snapshot, name string, labels map[string]string) uint64 {
	for _, h := range s.Histograms {
		if h.Name != name || len(h.Labels) != len(labels) {
			continue
		}
		match := true
		for k, v := range labels {
			if h.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return h.Count
		}
	}
	return 0
}

func printDump(dump telemetry.Dump) {
	s := dump.Metrics
	s.Sort()
	w := func(format string, a ...any) { fmt.Printf(format+"\n", a...) }
	if len(s.Counters) > 0 {
		w("COUNTERS")
		for _, c := range s.Counters {
			w("  %-52s %12d", series(c.Name, c.Labels), c.Value)
		}
	}
	if len(s.Gauges) > 0 {
		w("\nGAUGES")
		for _, g := range s.Gauges {
			w("  %-52s %12d", series(g.Name, g.Labels), g.Value)
		}
	}
	if len(s.Histograms) > 0 {
		w("\nHISTOGRAMS (µs)")
		w("  %-52s %10s %10s %10s %10s %10s", "series", "count", "mean", "p50", "p95", "p99")
		for _, h := range s.Histograms {
			mean := 0.0
			if h.Count > 0 {
				mean = float64(h.Sum) / float64(h.Count)
			}
			w("  %-52s %10d %10.1f %10.1f %10.1f %10.1f",
				series(h.Name, h.Labels), h.Count, mean/1e3,
				float64(h.P50)/1e3, float64(h.P95)/1e3, float64(h.P99)/1e3)
		}
	}
	if len(dump.Traces) > 0 {
		w("\nTRACES: %d hop events retained", len(dump.Traces))
		byPID := map[uint64][]telemetry.TraceEvent{}
		var pids []uint64
		for _, ev := range dump.Traces {
			if len(byPID[ev.PID]) == 0 {
				pids = append(pids, ev.PID)
			}
			byPID[ev.PID] = append(byPID[ev.PID], ev)
		}
		shown := 0
		for _, pid := range pids {
			hops := byPID[pid]
			if hops[0].Stage != telemetry.StageClassify {
				continue // classify hop already overwritten; partial trace
			}
			parts := make([]string, len(hops))
			for i, h := range hops {
				name := h.Name
				if name == "" {
					name = h.Stage.String()
				} else if h.Stage != telemetry.StageNF {
					name = h.Stage.String() + ":" + name
				}
				if i == 0 {
					parts[i] = name
				} else {
					parts[i] = fmt.Sprintf("%s (+%.1fµs)", name, float64(h.TS-hops[0].TS)/1e3)
				}
			}
			w("  pid %-8d %s", pid, strings.Join(parts, " -> "))
			if shown++; shown == 5 {
				w("  ... (%d more traced packets)", countFull(byPID, pids)-shown)
				break
			}
		}
	}
}

func countFull(byPID map[uint64][]telemetry.TraceEvent, pids []uint64) int {
	n := 0
	for _, pid := range pids {
		if byPID[pid][0].Stage == telemetry.StageClassify {
			n++
		}
	}
	return n
}

func series(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + labels[k]
	}
	return name + "{" + strings.Join(parts, ",") + "}"
}

func metricsFail(err error) {
	fmt.Fprintf(os.Stderr, "nfpinspect metrics: %v\n", err)
	os.Exit(1)
}
