package main

import (
	"fmt"
	"os"
	"sort"

	"nfp/internal/telemetry"
)

// traceCmd implements `nfpinspect trace`: render a running server's
// per-PID span trees with the exact latency decomposition of each
// sampled packet.
func traceCmd(args []string) error {
	src := newSource("trace", "read a running server's spans at this host:port")
	max := src.fs.Int("max", 5, "packets to render (0 = all)")
	chrome := src.fs.String("chrome", "", "also write the Chrome trace-event JSON to this file ('-' for stdout)")
	src.parseAddr(args, " [-max 5] [-chrome FILE]")

	if *chrome != "" {
		raw, err := src.get("/debug/spans?format=chrome")
		if err != nil {
			return err
		}
		if *chrome == "-" {
			_, err = os.Stdout.Write(raw)
		} else if err = os.WriteFile(*chrome, raw, 0o644); err == nil {
			fmt.Fprintf(os.Stderr, "chrome trace: %d bytes -> %s (open in chrome://tracing or ui.perfetto.dev)\n",
				len(raw), *chrome)
		}
		if err != nil || src.asJSON {
			return err
		}
	}
	return show(src, "/debug/spans", func(d telemetry.SpansDump) {
		pids := make([]uint64, 0, len(d.Spans))
		events := 0
		for pid, spans := range d.Spans {
			pids = append(pids, pid)
			events += len(spans)
		}
		sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
		fmt.Printf("SPANS: %d events in %d complete packets, %d packets truncated by ring eviction\n",
			events, len(pids), d.TruncatedPIDs)
		for i, pid := range pids {
			if *max > 0 && i == *max {
				fmt.Printf("... (%d more traced packets; rerun with -max 0 for all)\n", len(pids)-i)
				break
			}
			printSpanTree(pid, d.Spans[pid])
		}
	})
}

// printSpanTree renders one packet's spans: a decomposition header
// line, then every span as offset+duration on its version chain
// (branch-copy chains indent one level under the base chain).
func printSpanTree(pid uint64, spans []telemetry.TraceEvent) {
	head := spans[0]
	if at, ok := telemetry.Decompose(spans); ok {
		fmt.Printf("pid %-8d mid %d  e2e %s = classify %s + ring-wait %s + service %s + merge-wait %s + merge %s + output %s\n",
			pid, at.MID, us(at.E2E), us(at.Classify), us(at.RingWait), us(at.Service),
			us(at.MergeWait), us(at.Merge), us(at.Output))
	} else {
		fmt.Printf("pid %-8d mid %d  (chain incomplete — spans evicted or packet in flight)\n", pid, head.MID)
	}
	for _, ev := range spans {
		indent := "  "
		if ev.Ver != head.Ver {
			indent = "    "
		}
		name := ev.Stage.String()
		if ev.Name != "" {
			name += " " + ev.Name
		}
		extra := ""
		if ev.Join != 0 {
			extra = fmt.Sprintf("  join=%d", ev.Join-1)
		}
		if ev.Stage == telemetry.StageCopy {
			extra = fmt.Sprintf("  from=v%d", ev.SrcVer)
		}
		fmt.Printf("%s[v%d] %-22s @+%-9s %s%s\n",
			indent, ev.Ver, name, us(ev.Begin-head.Begin), us(ev.Dur()), extra)
	}
}

// criticalPathCmd implements `nfpinspect criticalpath`: a running
// server's aggregate attribution report — queue wait vs service vs
// merge overhead — and the measured parallel speedup per micrograph.
func criticalPathCmd(args []string) error {
	src := newSource("criticalpath", "read a running server's critical-path report at this host:port")
	src.parseAddr(args, "")
	return show(src, "/debug/criticalpath", printCriticalPath)
}

func printCriticalPath(rep telemetry.CriticalPathReport) {
	fmt.Printf("CRITICAL PATH: %d packets analyzed, %d truncated, %d unparsed\n",
		rep.Packets, rep.Truncated, rep.Unparsed)
	mids := make([]uint32, 0, len(rep.ByMID))
	for mid := range rep.ByMID {
		mids = append(mids, mid)
	}
	sort.Slice(mids, func(i, j int) bool { return mids[i] < mids[j] })
	for _, mid := range mids {
		mc := rep.ByMID[mid]
		fmt.Printf("\nmid %d — %d packets\n", mid, mc.Packets)
		fmt.Printf("  e2e latency:     p50 %-10s p99 %s\n", us(int64(mc.E2EP50)), us(int64(mc.E2EP99)))
		fmt.Printf("  critical path:   p50 %-10s p99 %s   (service time on the longest branch)\n",
			us(int64(mc.CriticalP50)), us(int64(mc.CriticalP99)))
		fmt.Printf("  sequential sum:  p50 %-10s p99 %s   (service time a sequential chain would pay)\n",
			us(int64(mc.SeqP50)), us(int64(mc.SeqP99)))
		fmt.Printf("  parallel speedup: %.2fx aggregate (p50 %.2fx, p99 %.2fx)\n",
			mc.Speedup, mc.SpeedupP50, mc.SpeedupP99)
		total := mc.Classify + mc.RingWait + mc.Service + mc.MergeWait + mc.Merge + mc.Output
		if total > 0 {
			fmt.Printf("  attribution:     classify %s | queue wait %s | service %s | merge wait %s | merge %s | output %s\n",
				pctOf(mc.Classify, total), pctOf(mc.RingWait, total), pctOf(mc.Service, total),
				pctOf(mc.MergeWait, total), pctOf(mc.Merge, total), pctOf(mc.Output, total))
		}
	}
}

func us(ns int64) string {
	return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
}

func pctOf(part, total int64) string {
	return fmt.Sprintf("%.1f%%", 100*float64(part)/float64(total))
}
