package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"nfp/internal/telemetry"
)

// metricsCmd implements `nfpinspect metrics`: snapshot a running
// nfpd's /debug/telemetry and pretty-print it, or (-watch) re-poll it
// and print what changed.
func metricsCmd(args []string) error {
	src := newSource("metrics", "scrape a running server's /debug/telemetry at this host:port")
	watch := src.fs.Duration("watch", 0, "re-poll at this interval and print counter deltas")
	src.parseAddr(args, " [-watch 2s]")
	if *watch > 0 {
		return watchMetrics(src, *watch)
	}
	return show(src, "/debug/telemetry", printDump)
}

// watchMetrics re-polls a running server and prints what changed since
// the previous poll: counter deltas as per-second rates, gauge moves,
// and histogram count/p99 updates. Unchanged series stay silent, so the
// output diffs cleanly across intervals.
func watchMetrics(src *source, interval time.Duration) error {
	poll := func() (telemetry.Snapshot, error) {
		var d telemetry.Dump
		err := src.fetch("/debug/telemetry", &d)
		d.Metrics.Sort()
		return d.Metrics, err
	}
	prev, err := poll()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "watching %s every %v (Ctrl-C to stop)\n", src.addr, interval)
	for range time.Tick(interval) {
		cur, err := poll()
		if err != nil {
			return err
		}
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
	return nil
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
