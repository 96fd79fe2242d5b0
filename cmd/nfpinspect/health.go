package main

import (
	"fmt"
	"strings"

	"nfp/internal/telemetry/diagnose"
)

// healthCmd implements `nfpinspect health`: a running server's health
// verdict — state, reasons, utilization-ranked bottlenecks, SLO status.
func healthCmd(args []string) error {
	src := newSource("health", "read a running server's /debug/health at this host:port")
	src.parseAddr(args, "")
	return show(src, "/debug/health", printHealth)
}

// topCmd implements `nfpinspect top`: a running server's heavy-hitter
// flow table from the space-saving sketch.
func topCmd(args []string) error {
	src := newSource("top", "read a running server's /debug/topflows at this host:port")
	n := src.fs.Int("n", 20, "flows to show")
	src.parseAddr(args, " [-n 20]")
	return show(src, fmt.Sprintf("/debug/topflows?n=%d", *n), printTopFlows)
}

func printHealth(rep diagnose.HealthReport) {
	fmt.Printf("HEALTH: %s (window %.1fs, %d samples)\n", strings.ToUpper(rep.State), rep.WindowSeconds, rep.Samples)
	for _, r := range rep.Reasons {
		fmt.Printf("  reason: %s\n", r)
	}
	if len(rep.Bottlenecks) > 0 {
		// The shard column only appears when any instance carries one
		// (i.e. the diagnosed server is sharded).
		sharded := false
		for _, b := range rep.Bottlenecks {
			if b.Shard != "" {
				sharded = true
				break
			}
		}
		fmt.Printf("\nBOTTLENECKS (by utilization ρ = arrival × service time)\n")
		if sharded {
			fmt.Printf("  %-12s %-5s %-5s %6s %10s %12s %8s  %s\n", "nf", "mid", "shard", "ρ", "arrive/s", "service µs", "ring", "verdict")
		} else {
			fmt.Printf("  %-12s %-5s %6s %10s %12s %8s  %s\n", "nf", "mid", "ρ", "arrive/s", "service µs", "ring", "verdict")
		}
		for _, b := range rep.Bottlenecks {
			ring := "-"
			if b.RingCapacity > 0 {
				ring = fmt.Sprintf("%.0f%%", 100*b.RingFill)
			}
			if sharded {
				shard := b.Shard
				if shard == "" {
					shard = "-"
				}
				fmt.Printf("  %-12s %-5s %-5s %6.2f %10.0f %12.1f %8s  %s\n",
					b.NF, b.MID, shard, b.Rho, b.ArrivalPPS, b.MeanServiceNS/1e3, ring, b.Verdict)
				continue
			}
			fmt.Printf("  %-12s %-5s %6.2f %10.0f %12.1f %8s  %s\n",
				b.NF, b.MID, b.Rho, b.ArrivalPPS, b.MeanServiceNS/1e3, ring, b.Verdict)
		}
	}
	for _, s := range rep.SLO {
		status := "met"
		if !s.Met {
			status = "MISSED"
		}
		ident := "mid=" + s.MID
		if s.Shard != "" {
			ident += " shard=" + s.Shard
		}
		fmt.Printf("\nSLO %s: p99 %.1fµs vs target %.1fµs — %s (burn %.1fx, %d/%d over)\n",
			ident, float64(s.WindowP99NS)/1e3, float64(s.TargetP99NS)/1e3, status,
			s.BurnRate, s.Violations, s.WindowCount)
	}
}

func printTopFlows(rep diagnose.TopFlowsReport) {
	fmt.Printf("TOP FLOWS: %d tracked of %d pkts / %d bytes total (max overcount %d pkts/flow)\n",
		rep.Tracked, rep.TotalPkts, rep.TotalBytes, rep.ErrorBound)
	fmt.Printf("  %-26s %-26s %-5s %12s %14s %8s %s\n", "src", "dst", "proto", "pkts", "bytes", "share", "")
	for _, f := range rep.Flows {
		mark := ""
		if f.Guaranteed {
			mark = "*"
		}
		share := 0.0
		if rep.TotalPkts > 0 {
			share = 100 * float64(f.Pkts) / float64(rep.TotalPkts)
		}
		fmt.Printf("  %-26s %-26s %-5d %12d %14d %7.1f%% %s\n",
			f.Src, f.Dst, f.Proto, f.Pkts, f.Bytes, share, mark)
	}
	if len(rep.Flows) > 0 {
		fmt.Printf("  (* = guaranteed heavy hitter: lower-bound count exceeds the max overcount)\n")
	}
}
