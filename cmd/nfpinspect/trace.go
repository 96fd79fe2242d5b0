package main

import (
	"fmt"
	"os"
	"sort"

	"nfp/internal/dataplane"
	"nfp/internal/telemetry"
)

// traceFlags is the option set shared by `nfpinspect trace` and
// `nfpinspect criticalpath`: where the spans come from (a live server
// or a fresh in-process run) and how to render them.
type traceFlags struct {
	*source
	cfg dataplane.Config // of the in-process run
}

func newTraceFlags(name string) *traceFlags {
	tf := &traceFlags{source: newSource(name, 2000,
		"read a running server's spans at this host:port",
		"run this comma-separated chain in-process and analyze it",
		jsonReport)}
	tf.fs.IntVar(&tf.cfg.TraceSampleRate, "trace-sample", 1, "trace ~1/N packets during the in-process run")
	tf.fs.IntVar(&tf.cfg.TraceCapacity, "trace-buf", 1<<16, "tracer span ring capacity for the in-process run")
	return tf
}

// traceCmd implements `nfpinspect trace`: render per-PID span trees
// with the exact latency decomposition of each sampled packet.
func traceCmd(args []string) {
	tf := newTraceFlags("trace")
	max := tf.fs.Int("max", 5, "packets to render (0 = all)")
	chrome := tf.fs.String("chrome", "", "also write the Chrome trace-event JSON to this file ('-' for stdout)")
	_ = tf.fs.Parse(args)
	events := tf.dump(tf.cfg).Traces

	if *chrome != "" {
		out := os.Stdout
		if *chrome != "-" {
			f, err := os.Create(*chrome)
			if err != nil {
				metricsFail(err)
			}
			defer f.Close()
			out = f
		}
		if err := telemetry.WriteChromeTrace(out, events); err != nil {
			metricsFail(err)
		}
		if *chrome != "-" {
			fmt.Fprintf(os.Stderr, "chrome trace: %d events -> %s (open in chrome://tracing or ui.perfetto.dev)\n",
				len(events), *chrome)
		}
		if tf.asJSON {
			return
		}
	}

	groups, truncated := telemetry.GroupEvents(events)
	if tf.asJSON {
		emitJSON(telemetry.SpansDump{TruncatedPIDs: truncated, Spans: groups})
		return
	}

	pids := make([]uint64, 0, len(groups))
	for pid := range groups {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	fmt.Printf("SPANS: %d events retained, %d complete packets, %d truncated by ring eviction\n",
		len(events), len(pids), truncated)
	for i, pid := range pids {
		if *max > 0 && i == *max {
			fmt.Printf("... (%d more traced packets; rerun with -max 0 for all)\n", len(pids)-i)
			break
		}
		printSpanTree(pid, groups[pid])
	}
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

// criticalPathCmd implements `nfpinspect criticalpath`: the aggregate
// attribution report — queue wait vs service vs merge overhead — and
// the measured parallel speedup per micrograph.
func criticalPathCmd(args []string) {
	tf := newTraceFlags("criticalpath")
	_ = tf.fs.Parse(args)

	var rep telemetry.CriticalPathReport
	if tf.addr != "" {
		fetchJSON(tf.addr, "/debug/criticalpath", &rep)
	} else {
		rep = telemetry.BuildCriticalPathReport(tf.dump(tf.cfg).Traces)
	}

	if tf.asJSON {
		emitJSON(rep)
		return
	}

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
