package main

import (
	"fmt"
	"strings"
	"time"

	"nfp/internal/dataplane"
	"nfp/internal/experiments"
	"nfp/internal/telemetry"
	"nfp/internal/telemetry/diagnose"
)

// healthFlags is the option set shared by `nfpinspect health` and
// `nfpinspect top`: read a running nfpd's diagnosis endpoints (-addr)
// or run a chain in-process with diagnosis enabled (-chain).
type healthFlags struct {
	*source
	sloP99 time.Duration
	zipf   float64
	shards int
}

func newHealthFlags(name string) *healthFlags {
	hf := &healthFlags{source: newSource(name, 20000,
		"read a running server's diagnosis endpoints at this host:port",
		"run this comma-separated chain in-process with diagnosis enabled",
		jsonReport)}
	hf.fs.DurationVar(&hf.sloP99, "slo-p99", 0, "p99 latency objective for the in-process run (0 = none)")
	hf.fs.Float64Var(&hf.zipf, "zipf", 1.3, "Zipf skew of the in-process flow mix (0 = round-robin)")
	hf.fs.IntVar(&hf.shards, "shards", 1, "flow-sharded execution domains for the in-process run (1 = unsharded)")
	return hf
}

// healthCmd implements `nfpinspect health`: the live health verdict —
// state, reasons, utilization-ranked bottlenecks, SLO status.
func healthCmd(args []string) {
	hf := newHealthFlags("health")
	_ = hf.fs.Parse(args)

	var rep diagnose.HealthReport
	switch {
	case hf.addr != "":
		fetchJSON(hf.addr, "/debug/health", &rep)
	case hf.chain != "":
		rep, _ = runDiagnosis(hf)
	default:
		hf.usage("")
	}
	if hf.asJSON {
		emitJSON(rep)
		return
	}
	printHealth(rep)
}

// topCmd implements `nfpinspect top`: the heavy-hitter flow table from
// the space-saving sketch.
func topCmd(args []string) {
	hf := newHealthFlags("top")
	n := hf.fs.Int("n", 20, "flows to show")
	_ = hf.fs.Parse(args)

	var rep diagnose.TopFlowsReport
	switch {
	case hf.addr != "":
		fetchJSON(hf.addr, fmt.Sprintf("/debug/topflows?n=%d", *n), &rep)
	case hf.chain != "":
		_, rep = runDiagnosis(hf)
		if len(rep.Flows) > *n {
			rep.Flows = rep.Flows[:*n]
		}
	default:
		hf.usage(" [-n 20]")
	}
	if hf.asJSON {
		emitJSON(rep)
		return
	}
	printTopFlows(rep)
}

// runDiagnosis runs -chain with flow accounting + e2e latency sampling +
// a diagnosis sampler, and returns both reports.
func runDiagnosis(hf *healthFlags) (diagnose.HealthReport, diagnose.TopFlowsReport) {
	sketch := diagnose.NewTopK(16)
	reg := telemetry.NewRegistry()
	d := diagnose.New(diagnose.Config{
		Registry:     reg,
		SLOTargetP99: hf.sloP99,
		TopK:         sketch,
	})
	opts := experiments.LiveOptions{
		Config: dataplane.Config{
			Telemetry:       reg,
			FlowAccount:     sketch,
			TraceSampleRate: 1, // short run: observe every packet for exact counts
			Shards:          hf.shards,
		},
		OnServer: func(*dataplane.Server) { d.SampleNow() }, // window start
	}
	if _, err := hf.run(hf.zipf, opts); err != nil {
		metricsFail(err)
	}
	d.SampleNow() // window end
	hf.banner(fmt.Sprintf("seed %d, zipf %.2f", hf.seed, hf.zipf))
	return d.Report(), sketch.Top(0)
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
		rep.K, rep.TotalPkts, rep.TotalBytes, rep.ErrorBound)
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
		fmt.Printf("  (* = guaranteed heavy hitter: lower-bound count exceeds N/k)\n")
	}
}
