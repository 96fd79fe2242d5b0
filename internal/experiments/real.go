package experiments

import (
	"fmt"

	"nfp/internal/core"
	"nfp/internal/graph"
	"nfp/internal/nfa"
	"nfp/internal/policy"
	"nfp/internal/sim"
	"nfp/internal/stats"
	"nfp/internal/trafficgen"
)

// PairStatsTable reproduces the §1/§4.3 headline statistics: the share
// of Table 2 NF pairs that Algorithm 1 parallelizes, weighted by
// deployment probability.
func PairStatsTable() Table {
	on := nfa.WeightedPairStats(nfa.DefaultCatalog(), nfa.Options{})
	off := nfa.WeightedPairStats(nfa.DefaultCatalog(), nfa.Options{DisableDirtyMemoryReusing: true})
	return Table{
		ID:     "pairs",
		Title:  "NF pair parallelizability over the Table 2 catalog (deployment-weighted)",
		Header: []string{"metric", "reproduced", "paper"},
		Rows: [][]string{
			{"ordered pairs analyzed", fmt.Sprint(on.Pairs), "-"},
			{"parallelizable", pct(on.Parallelizable), "53.8%"},
			{"parallelizable, no copy", pct(on.NoCopy), "41.5%"},
			{"parallelizable, copy needed", pct(on.WithCopy), "12.3%"},
			{"no copy w/o Dirty Memory Reusing", pct(off.NoCopy), "-"},
		},
		Notes: []string{
			"ambiguous Table 2 field columns resolved per cited product behaviour (see internal/nfa/catalog.go)",
		},
	}
}

// realChain describes one Figure 13 service chain.
type realChain struct {
	label    string
	chain    []string
	paperSeq float64 // ONVM latency the paper reports (µs)
	paperNFP float64
	paperCut string
	paperRO  string
}

// Fig13 reproduces Figure 13: the north-south and west-east datacenter
// service chains, compiled by the orchestrator from Order rules and
// evaluated on the datacenter packet mix.
func Fig13() Table {
	chains := []realChain{
		{
			label:    "north-south (VPN,Monitor,FW,LB)",
			chain:    []string{nfa.NFVPN, nfa.NFMonitor, nfa.NFFirewall, nfa.NFLB},
			paperSeq: 241, paperNFP: 210, paperCut: "12.9%", paperRO: "0%",
		},
		{
			label:    "west-east (IDS,Monitor,LB)",
			chain:    []string{nfa.NFIDS, nfa.NFMonitor, nfa.NFLB},
			paperSeq: 220, paperNFP: 141, paperCut: "35.9%", paperRO: "8.8%",
		},
	}
	p := sim.MacroParams()
	dist := trafficgen.NewDataCenter(1)
	meanSize := int(dist.Mean())

	t := Table{
		ID:    "fig13",
		Title: "real-world service chains: compiled graph, latency, overhead (datacenter packet mix)",
		Header: []string{
			"chain", "compiled graph", "eq.len",
			"lat ONVM", "(paper)", "lat NFP", "(paper)",
			"cut", "(paper)", "overhead", "(paper)",
		},
		Notes: []string{
			fmt.Sprintf("latency evaluated at the mixture mean (%d B); overhead from the §6.3.1 model", meanSize),
			"graphs compiled from the chains' Order rules by the orchestrator (internal/core)",
			"macro calibration (sim.MacroParams): Fig 13 runs loaded chains whose per-NF latency is ~10x the Table 4 microbenchmarks",
		},
	}
	for _, rc := range chains {
		res, err := core.Compile(policy.FromChain(rc.chain...), nil, core.Options{})
		if err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("%s: compile error: %v", rc.label, err))
			continue
		}
		onvm := p.LatencyONVM(rc.chain, meanSize)
		nfp := p.LatencyGraph(res.Graph, meanSize)
		copies := graph.TotalCopies(res.Graph)
		ro := stats.MeanResourceOverhead(dist.Mean(), copies+1)
		t.Rows = append(t.Rows, []string{
			rc.label,
			res.Graph.String(),
			fmt.Sprint(graph.EquivalentLength(res.Graph)),
			f1(onvm), f1(rc.paperSeq),
			f1(nfp), f1(rc.paperNFP),
			pct(1 - nfp/onvm), rc.paperCut,
			pct(ro), rc.paperRO,
		})
	}
	return t
}

// OverheadTable reproduces §6.3.1: resource overhead as a function of
// packet size and parallelism degree under Header-Only Copying,
// including the datacenter-mixture figure ro = 0.088×(d−1).
func OverheadTable() Table {
	t := Table{
		ID:     "overhead",
		Title:  "extra memory per packet, ro = 64·(d−1)/s (Header-Only Copying)",
		Header: []string{"packet size", "d=2", "d=3", "d=4", "d=5"},
		Notes: []string{
			"datacenter-mixture row reproduces the paper's ro = 0.088×(d−1): 8.8% at degree 2",
		},
	}
	for _, size := range []int{64, 128, 256, 512, 724, 1024, 1500} {
		row := []string{fmt.Sprint(size)}
		for d := 2; d <= 5; d++ {
			row = append(row, pct(stats.ResourceOverhead(size, d)))
		}
		t.Rows = append(t.Rows, row)
	}
	dist := trafficgen.NewDataCenter(1)
	row := []string{fmt.Sprintf("DC mix (mean %.0f)", dist.Mean())}
	for d := 2; d <= 5; d++ {
		row = append(row, pct(stats.MeanResourceOverhead(dist.Mean(), d)))
	}
	t.Rows = append(t.Rows, row)
	return t
}

// MergerTable reproduces §6.3.3: merger instance capacity and the
// effect of the PID-hash load balancing across instances.
func MergerTable() Table {
	p := sim.DefaultParams()
	t := Table{
		ID:     "merger",
		Title:  "merger capacity (Mpps, firewall graph, 64B) vs instances and degree",
		Header: []string{"degree", "1 merger", "2 mergers", "4 mergers", "NF bound"},
		Notes: []string{
			fmt.Sprintf("one instance sustains %.1f Mpps at degree 2 (paper: 10.7)", 1/(p.MergeItemServiceUS*2)),
			"this repository's own merger, measured rather than modelled: `go test -bench MergerAccept ./internal/dataplane/` (one instance, degree 2, two address merge ops per packet, 64 tails drained per visit) sustains 5.4 M merged packets/s = 10.7 M tails/s with 0 allocs/op on the 2-vCPU 2.1 GHz development box, all in one core's cache; inside a running graph, where base and copy were last touched by other cores, `stateful_manyflow` spends 17 % of process CPU in the merger at 0.89 Mpps",
		},
	}
	nfBound := 1 / (sim.DefaultNFCosts()[nfa.NFFirewall].ServiceUS + p.HopServiceUS)
	for d := 2; d <= 5; d++ {
		g := parOf(nfa.NFFirewall, d)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(d),
			f2(p.ThroughputGraph(g, 64, 1)),
			f2(p.ThroughputGraph(g, 64, 2)),
			f2(p.ThroughputGraph(g, 64, 4)),
			f2(nfBound),
		})
	}
	return t
}
