package experiments

import (
	"fmt"

	"nfp/internal/graph"
	"nfp/internal/nfa"
	"nfp/internal/sim"
)

// chainOf returns n copies of an NF name.
func chainOf(name string, n int) []string {
	c := make([]string, n)
	for i := range c {
		c[i] = name
	}
	return c
}

// parOf returns a shared-copy Par of n instances of an NF.
func parOf(name string, n int) graph.Node {
	if n == 1 {
		return graph.NF{Name: name}
	}
	branches := make([]graph.Node, n)
	for i := range branches {
		branches[i] = graph.NF{Name: name, Instance: i}
	}
	return graph.Par{Branches: branches}
}

// seqOf returns a sequential chain of n instances of an NF.
func seqOf(name string, n int) graph.Node {
	items := make([]graph.Node, n)
	for i := range items {
		items[i] = graph.NF{Name: name, Instance: i}
	}
	return graph.Seq{Items: items}
}

// parCopyOf returns a Par of n instances, each in its own copy group —
// the "NFP-parallel-copy" setups of Figures 8–12 (Figure 10's third
// configuration).
func parCopyOf(name string, n int) graph.Node {
	if n == 1 {
		return graph.NF{Name: name}
	}
	branches := make([]graph.Node, n)
	groups := make([][]int, n)
	full := make([]bool, n)
	for i := range branches {
		branches[i] = graph.NF{Name: name, Instance: i}
		groups[i] = []int{i}
	}
	return graph.Par{Branches: branches, Groups: groups, FullCopy: full}
}

// Table4 reproduces Table 4: OpenNetVM vs NFP vs BESS for firewall
// chains of length 1–3 (64 B, n+2 cores; BESS replicates the chain on
// all n+2 cores).
func Table4() Table {
	p := sim.DefaultParams()
	paperLat := [][3]float64{{25, 23, 11.308}, {33, 27, 11.370}, {47, 31, 11.407}}
	paperRate := [][3]float64{{9.38, 10.9, 14.7}, {9.36, 10.9, 14.7}, {9.38, 10.9, 14.7}}
	t := Table{
		ID:    "table4",
		Title: "ONVM/NFP/BESS latency (µs) and rate (Mpps), firewall chains, 64B",
		Header: []string{
			"len", "cores",
			"lat ONVM", "(paper)", "lat NFP", "(paper)", "lat BESS", "(paper)",
			"rate ONVM", "(paper)", "rate NFP", "(paper)", "rate BESS", "(paper)",
		},
		Notes: []string{
			"NFP runs all NFs in parallel; BESS replicates the chain on n+2 cores",
			"model ONVM rate degrades with length (Fig 7b behaviour); the paper's Table 4 was NF-bound",
		},
	}
	for n := 1; n <= 3; n++ {
		chain := chainOf(nfa.NFFirewall, n)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(n + 2),
			f1(p.LatencyONVM(chain, 64)), f1(paperLat[n-1][0]),
			f1(p.LatencyGraph(parOf(nfa.NFFirewall, n), 64)), f1(paperLat[n-1][1]),
			f2(p.LatencyRTC(chain, 64)), f2(paperLat[n-1][2]),
			f2(p.ThroughputONVM(chain, 64)), f2(paperRate[n-1][0]),
			f2(p.ThroughputGraph(parOf(nfa.NFFirewall, n), 64, 2)), f2(paperRate[n-1][1]),
			f2(p.ThroughputRTC(chain, 64, n+2)), f2(paperRate[n-1][2]),
		})
	}
	return t
}

// Fig7 reproduces Figure 7: sequential L3-forwarder chains — (a)
// latency vs chain length at 64B, (b) processing rate vs packet size.
func Fig7() []Table {
	p := sim.DefaultParams()
	lat := Table{
		ID:     "fig7a",
		Title:  "sequential chain latency (µs) vs NF number, 64B",
		Header: []string{"NFs", "OpenNetVM", "NFP"},
		Notes: []string{
			"NFP compiles the chain sequentially (compatibility mode): no copying, no merging",
			"shape target: both linear; NFP within a few µs of ONVM (\"a tiny latency overhead\")",
		},
	}
	for n := 1; n <= 5; n++ {
		chain := chainOf(nfa.NFL3Fwd, n)
		lat.Rows = append(lat.Rows, []string{
			fmt.Sprint(n),
			f1(p.LatencyONVM(chain, 64)),
			f1(p.LatencySeqNFP(chain, 64)),
		})
	}
	rate := Table{
		ID:     "fig7b",
		Title:  "processing rate (Mpps) vs packet size",
		Header: []string{"size", "NFP 1-5 NFs", "ONVM 1NF", "ONVM 2NF", "ONVM 3NF", "ONVM 4NF", "ONVM 5NF", "line"},
		Notes: []string{
			"shape target: NFP at line rate for every size; ONVM's central switch degrades with chain length at small packets",
		},
	}
	for _, size := range []int{64, 128, 256, 512, 1024, 1500} {
		row := []string{fmt.Sprint(size), f2(p.ThroughputSeqNFP(chainOf(nfa.NFL3Fwd, 5), size))}
		for n := 1; n <= 5; n++ {
			row = append(row, f2(p.ThroughputONVM(chainOf(nfa.NFL3Fwd, n), size)))
		}
		row = append(row, f2(lineRate(size)))
		rate.Rows = append(rate.Rows, row)
	}
	return []Table{lat, rate}
}

// Fig8 reproduces Figure 8: per-NF-type performance of sequential vs
// parallel composition of two instances, with and without copying.
func Fig8() []Table {
	p := sim.DefaultParams()
	nfTypes := []string{nfa.NFL3Fwd, nfa.NFLB, nfa.NFFirewall, nfa.NFMonitor, nfa.NFVPN, nfa.NFIDS}
	labels := []string{"Forwarder", "LB", "Firewall", "Monitor", "VPN", "IDS"}
	lat := Table{
		ID:     "fig8a",
		Title:  "latency (µs) by NF type: sequential vs 2-wide parallel, 64B",
		Header: []string{"NF", "ONVM-seq", "NFP-seq", "NFP-par-nocopy", "NFP-par-copy", "cut(nocopy)"},
		Notes: []string{
			"shape target: the parallel latency benefit grows with NF complexity (VPN/IDS biggest)",
		},
	}
	rate := Table{
		ID:     "fig8b",
		Title:  "processing rate (Mpps) by NF type, 64B",
		Header: []string{"NF", "ONVM-seq", "NFP-seq", "NFP-par-nocopy", "NFP-par-copy"},
	}
	for i, name := range nfTypes {
		chain := chainOf(name, 2)
		seqONVM := p.LatencyONVM(chain, 64)
		seqNFP := p.LatencySeqNFP(chain, 64)
		parNC := p.LatencyGraph(parOf(name, 2), 64)
		parC := p.LatencyGraph(parCopyOf(name, 2), 64)
		lat.Rows = append(lat.Rows, []string{
			labels[i], f1(seqONVM), f1(seqNFP), f1(parNC), f1(parC),
			pct(1 - parNC/seqNFP),
		})
		rate.Rows = append(rate.Rows, []string{
			labels[i],
			f2(p.ThroughputONVM(chain, 64)),
			f2(p.ThroughputSeqNFP(chain, 64)),
			f2(p.ThroughputGraph(parOf(name, 2), 64, 2)),
			f2(p.ThroughputGraph(parCopyOf(name, 2), 64, 2)),
		})
	}
	return []Table{lat, rate}
}

// Fig9 reproduces Figure 9: firewall with tunable per-packet busy-loop
// cycles (1–3000), sequential vs 2-wide parallel.
func Fig9() []Table {
	lat := Table{
		ID:     "fig9a",
		Title:  "latency (µs) vs processing cycles per packet (2 synthetic firewalls), 64B",
		Header: []string{"cycles", "ONVM-seq", "NFP-seq", "NFP-par-nocopy", "NFP-par-copy", "cut(nocopy)"},
		Notes: []string{
			"paper: \"for the most complex NF (3000 cycles), NFP brings around 45% latency reduction\"",
		},
	}
	rate := Table{
		ID:     "fig9b",
		Title:  "processing rate (Mpps) vs processing cycles per packet",
		Header: []string{"cycles", "ONVM-seq", "NFP-seq", "NFP-par-nocopy", "NFP-par-copy"},
	}
	for _, cycles := range []int{1, 300, 600, 900, 1200, 1500, 1800, 2100, 2400, 2700, 3000} {
		p := sim.DefaultParams().WithSyntheticCycles(cycles)
		chain := chainOf(nfa.NFSynthetic, 2)
		seqNFP := p.LatencySeqNFP(chain, 64)
		parNC := p.LatencyGraph(parOf(nfa.NFSynthetic, 2), 64)
		lat.Rows = append(lat.Rows, []string{
			fmt.Sprint(cycles),
			f1(p.LatencyONVM(chain, 64)),
			f1(seqNFP),
			f1(parNC),
			f1(p.LatencyGraph(parCopyOf(nfa.NFSynthetic, 2), 64)),
			pct(1 - parNC/seqNFP),
		})
		rate.Rows = append(rate.Rows, []string{
			fmt.Sprint(cycles),
			f2(p.ThroughputONVM(chain, 64)),
			f2(p.ThroughputSeqNFP(chain, 64)),
			f2(p.ThroughputGraph(parOf(nfa.NFSynthetic, 2), 64, 2)),
			f2(p.ThroughputGraph(parCopyOf(nfa.NFSynthetic, 2), 64, 2)),
		})
	}
	return []Table{lat, rate}
}

// Fig11 reproduces Figure 11: parallelism degree 2–5 with the 300-cycle
// firewall.
func Fig11() []Table {
	p := sim.DefaultParams().WithSyntheticCycles(300)
	lat := Table{
		ID:     "fig11a",
		Title:  "latency (µs) vs parallelism degree (300-cycle firewall), 64B",
		Header: []string{"degree", "ONVM-seq", "NFP-seq", "NFP-par-nocopy", "NFP-par-copy", "cut(nocopy)", "cut(copy)"},
		Notes: []string{
			"paper: latency reduction rises from 33% to 52% (no-copy) and up to 32% (copy);",
			"the reduction cannot reach the theoretical 80% at degree 5 — merging grows with degree",
		},
	}
	rate := Table{
		ID:     "fig11b",
		Title:  "processing rate (Mpps) vs parallelism degree",
		Header: []string{"degree", "ONVM-seq", "NFP-seq", "NFP-par-nocopy", "NFP-par-copy"},
	}
	for d := 2; d <= 5; d++ {
		chain := chainOf(nfa.NFSynthetic, d)
		seqNFP := p.LatencySeqNFP(chain, 64)
		parNC := p.LatencyGraph(parOf(nfa.NFSynthetic, d), 64)
		parC := p.LatencyGraph(parCopyOf(nfa.NFSynthetic, d), 64)
		lat.Rows = append(lat.Rows, []string{
			fmt.Sprint(d),
			f1(p.LatencyONVM(chain, 64)),
			f1(seqNFP), f1(parNC), f1(parC),
			pct(1 - parNC/seqNFP), pct(1 - parC/seqNFP),
		})
		rate.Rows = append(rate.Rows, []string{
			fmt.Sprint(d),
			f2(p.ThroughputONVM(chain, 64)),
			f2(p.ThroughputSeqNFP(chain, 64)),
			f2(p.ThroughputGraph(parOf(nfa.NFSynthetic, d), 64, 2)),
			f2(p.ThroughputGraph(parCopyOf(nfa.NFSynthetic, d), 64, 2)),
		})
	}
	return []Table{lat, rate}
}

// Fig12 reproduces Figure 12: the six 4-NF graph structures of
// Figure 14 (300-cycle firewalls).
func Fig12() []Table {
	p := sim.DefaultParams().WithSyntheticCycles(300)
	mk := func(i int) graph.NF { return graph.NF{Name: nfa.NFSynthetic, Instance: i} }
	mkCopyPar := func(is ...int) graph.Par {
		branches := make([]graph.Node, len(is))
		groups := make([][]int, len(is))
		for j, i := range is {
			branches[j] = mk(i)
			groups[j] = []int{j}
		}
		return graph.Par{Branches: branches, Groups: groups, FullCopy: make([]bool, len(is))}
	}
	type structDef struct {
		label  string
		nocopy graph.Node
		copyg  graph.Node
	}
	structs := []structDef{
		{"(1) sequential",
			graph.Seq{Items: []graph.Node{mk(0), mk(1), mk(2), mk(3)}},
			graph.Seq{Items: []graph.Node{mk(0), mk(1), mk(2), mk(3)}}},
		{"(2) 1+1+1+1",
			graph.Par{Branches: []graph.Node{mk(0), mk(1), mk(2), mk(3)}},
			mkCopyPar(0, 1, 2, 3)},
		{"(3) 1->3",
			graph.Seq{Items: []graph.Node{mk(0), graph.Par{Branches: []graph.Node{mk(1), mk(2), mk(3)}}}},
			graph.Seq{Items: []graph.Node{mk(0), mkCopyPar(1, 2, 3)}}},
		{"(4) 1+2+1",
			graph.Seq{Items: []graph.Node{mk(0), graph.Par{Branches: []graph.Node{mk(1), mk(2)}}, mk(3)}},
			graph.Seq{Items: []graph.Node{mk(0), mkCopyPar(1, 2), mk(3)}}},
		{"(5) 1+3",
			graph.Par{Branches: []graph.Node{mk(0), graph.Seq{Items: []graph.Node{mk(1), mk(2), mk(3)}}}},
			graph.Par{
				Branches: []graph.Node{mk(0), graph.Seq{Items: []graph.Node{mk(1), mk(2), mk(3)}}},
				Groups:   [][]int{{0}, {1}}, FullCopy: []bool{false, false},
			}},
		{"(6) 2+2",
			graph.Seq{Items: []graph.Node{
				graph.Par{Branches: []graph.Node{mk(0), mk(1)}},
				graph.Par{Branches: []graph.Node{mk(2), mk(3)}},
			}},
			graph.Seq{Items: []graph.Node{mkCopyPar(0, 1), mkCopyPar(2, 3)}}},
	}
	lat := Table{
		ID:     "fig12a",
		Title:  "latency (µs) of the six 4-NF graph structures (Fig 14), 64B",
		Header: []string{"graph", "eq.len", "NFP-seq", "NFP-par-nocopy", "NFP-par-copy", "cut(nocopy)"},
		Notes: []string{
			"shape target: latency tracks equivalent chain length; graph (2) biggest cut, graph (5) smallest",
		},
	}
	rate := Table{
		ID:     "fig12b",
		Title:  "processing rate (Mpps) of the six graph structures",
		Header: []string{"graph", "NFP-par-nocopy", "NFP-par-copy"},
	}
	seq := p.LatencyGraph(structs[0].nocopy, 64)
	for _, sd := range structs {
		l := p.LatencyGraph(sd.nocopy, 64)
		lc := p.LatencyGraph(sd.copyg, 64)
		lat.Rows = append(lat.Rows, []string{
			sd.label,
			fmt.Sprint(graph.EquivalentLength(sd.nocopy)),
			f1(seq), f1(l), f1(lc),
			pct(1 - l/seq),
		})
		rate.Rows = append(rate.Rows, []string{
			sd.label,
			f2(p.ThroughputGraph(sd.nocopy, 64, 2)),
			f2(p.ThroughputGraph(sd.copyg, 64, 2)),
		})
	}
	return []Table{lat, rate}
}

// lineRate returns the 10GbE line rate in Mpps.
func lineRate(size int) float64 {
	return 10e3 / (float64(size+20) * 8)
}
