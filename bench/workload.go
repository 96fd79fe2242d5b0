package main

import (
	"fmt"
	"net/netip"

	"nfp/internal/core"
	"nfp/internal/dataplane"
	"nfp/internal/graph"
	"nfp/internal/nfa"
	"nfp/internal/policy"
)

// chain is one service graph of a workload: the sequential chain the
// orchestrator compiles, the MID it is installed under, and the
// destination port whose classifier rule steers flows into it.
type chain struct {
	mid   uint32
	dport uint16
	nfs   []string
}

// workload is one frozen traffic mix. The fields are the properties the
// dataplane's behaviour depends on: graph shape, frame sizes, how many
// flows are live, how they are revisited, whether new flows keep
// arriving, how long the rule walk is and whether the control plane
// mutates the server mid-traffic.
type workload struct {
	name string
	why  string

	chains []chain
	// flows is the number of established flows; all are injected once
	// during warm-up.
	flows int
	// dcSizes draws frame sizes from the datacenter mixture instead of
	// fixed 64-byte frames.
	dcSizes bool
	// zipf > 1 revisits established flows by Zipf(s=zipf) rank;
	// otherwise they are visited in a seeded permutation, each exactly
	// once per lap.
	zipf float64
	// newEvery > 0 makes every newEvery-th packet open a never-seen
	// 5-tuple.
	newEvery int
	// padRules is the number of non-matching classifier rules installed
	// ahead of the matching ones.
	padRules int
	// reloadEvery > 0 fires Server.Reload on the first chain from a
	// control goroutine once per that many injected packets.
	reloadEvery int
}

var workloads = []workload{
	{
		name: "fwd64",
		why:  "bare forwarding at the smallest frame: 5 fused l3fwd, 64 flows, 1 rule; framework cost (mempool, classifier hit path, fused runtime, output channel) is everything",
		chains: []chain{{mid: 1, dport: 80,
			nfs: []string{nfa.NFL3Fwd, nfa.NFL3Fwd, nfa.NFL3Fwd, nfa.NFL3Fwd, nfa.NFL3Fwd}}},
		flows: 64,
	},
	{
		name: "fig13_dcmix",
		why:  "the paper's Fig 13 macro evaluation: north-south and west-east chains side by side, datacenter size mix, 1024 flows; NF compute, copies and mergers dominate",
		chains: []chain{
			{mid: 1, dport: 80, nfs: []string{nfa.NFVPN, nfa.NFMonitor, nfa.NFFirewall, nfa.NFLB}},
			{mid: 2, dport: 443, nfs: []string{nfa.NFIDS, nfa.NFMonitor, nfa.NFLB}},
		},
		flows:   1024,
		dcSizes: true,
	},
	{
		name:   "stateful_manyflow",
		why:    "262144 established flows visited uniformly, 64x the microflow cache: every packet misses the flow cache and reads a cold per-flow state entry",
		chains: []chain{{mid: 1, dport: 80, nfs: []string{nfa.NFFirewall, nfa.NFMonitor, nfa.NFLB}}},
		flows:  262144,
	},
	{
		name:     "stateful_newflows",
		why:      "32768 Zipf(1.1) flows with every 4th packet opening a never-seen 5-tuple: the state layer inserts and the cache installs beside lookups",
		chains:   []chain{{mid: 1, dport: 80, nfs: []string{nfa.NFFirewall, nfa.NFMonitor, nfa.NFLB}}},
		flows:    32768,
		zipf:     1.1,
		newEvery: 4,
	},
	{
		name: "fwd64_reconfig",
		why:  "fwd64 over 4096 flows behind 1024 non-matching rules with Server.Reload firing mid-traffic: control-plane writes beside fast-path reads",
		chains: []chain{{mid: 1, dport: 80,
			nfs: []string{nfa.NFL3Fwd, nfa.NFL3Fwd, nfa.NFL3Fwd, nfa.NFL3Fwd, nfa.NFL3Fwd}}},
		flows:       4096,
		padRules:    1024,
		reloadEvery: 1 << 15, // about 120 reloads in a 20 s run on the seed commit
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// compile turns a chain into its service graph. sequential compiles
// with parallelism off — the reference the correctness check compares
// against. A chain repeating one NF type cannot be named by a policy
// (rules identify NFs by name), so it is built as a Seq of instances.
func (c chain) compile(sequential bool) (graph.Node, error) {
	seen := map[string]bool{}
	repeats := false
	for _, n := range c.nfs {
		repeats = repeats || seen[n]
		seen[n] = true
	}
	if repeats {
		items := make([]graph.Node, len(c.nfs))
		for i, n := range c.nfs {
			items[i] = graph.NF{Name: n, Instance: i}
		}
		return graph.Seq{Items: items}, nil
	}
	res, err := core.Compile(policy.FromChain(c.nfs...), nil, core.Options{NoParallelism: sequential})
	if err != nil {
		return nil, fmt.Errorf("compile %v: %w", c.nfs, err)
	}
	return res.Graph, nil
}

// installRules programs the classification table: padRules rules no
// generated packet matches (sources in 172.16/12; traffic is in 10/8 and
// 11/8), then one destination-port rule per chain.
func (w *workload) installRules(c *dataplane.Classifier) {
	for i := 0; i < w.padRules; i++ {
		addr := netip.AddrFrom4([4]byte{172, 16, byte(i >> 8), byte(i)})
		c.AddRule(dataplane.Match{SrcPrefix: netip.PrefixFrom(addr, 32)}, w.chains[0].mid)
	}
	for _, ch := range w.chains {
		c.AddRule(dataplane.Match{DstPort: ch.dport}, ch.mid)
	}
}
