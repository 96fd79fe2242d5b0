package main

import (
	"fmt"
	"os"
	"time"

	"nfp/internal/telemetry"
)

// metricsCmd implements `nfpinspect metrics`: snapshot a running
// nfpd's /debug/telemetry and pretty-print it, or (-watch) re-poll it
// and print what changed. Spans are `nfpinspect trace`'s.
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
	cur, err := poll()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "watching %s every %v (Ctrl-C to stop)\n", src.addr, interval)
	for range time.Tick(interval) {
		prev := cur.Index()
		if cur, err = poll(); err != nil {
			return err
		}
		secs := interval.Seconds()
		fmt.Printf("--- %s\n", time.Now().Format("15:04:05"))
		for _, c := range cur.Counters {
			key := telemetry.SeriesKey(c.Name, c.Labels)
			if d := c.Value - prev.Counters[key]; d != 0 {
				fmt.Printf("  %-52s %+12d  (%.0f/s)\n", key, d, float64(d)/secs)
			}
		}
		for _, g := range cur.Gauges {
			if key := telemetry.SeriesKey(g.Name, g.Labels); g.Value != prev.Gauges[key] {
				fmt.Printf("  %-52s %12d\n", key, g.Value)
			}
		}
		for _, h := range cur.Histograms {
			key := telemetry.SeriesKey(h.Name, h.Labels)
			if d := h.Count - prev.Histograms[key].Count; d != 0 {
				fmt.Printf("  %-52s %+12d  (p99 %.1fµs)\n", key, d, float64(h.P99)/1e3)
			}
		}
	}
	return nil
}

func printDump(dump telemetry.Dump) {
	s := dump.Metrics
	s.Sort()
	w := func(format string, a ...any) { fmt.Printf(format+"\n", a...) }
	if len(s.Counters) > 0 {
		w("COUNTERS")
		for _, c := range s.Counters {
			w("  %-52s %12d", telemetry.SeriesKey(c.Name, c.Labels), c.Value)
		}
	}
	if len(s.Gauges) > 0 {
		w("\nGAUGES")
		for _, g := range s.Gauges {
			w("  %-52s %12d", telemetry.SeriesKey(g.Name, g.Labels), g.Value)
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
				telemetry.SeriesKey(h.Name, h.Labels), h.Count, mean/1e3,
				float64(h.P50)/1e3, float64(h.P95)/1e3, float64(h.P99)/1e3)
		}
	}
}
