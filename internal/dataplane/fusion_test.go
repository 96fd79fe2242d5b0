package dataplane

import (
	"fmt"
	"testing"

	"nfp/internal/core"
	"nfp/internal/graph"
	"nfp/internal/nfa"
	"nfp/internal/policy"
)

// seqChainGraph builds a pure sequential chain of distinct NF nodes.
func seqChainGraph(names ...string) graph.Node {
	items := make([]graph.Node, len(names))
	for i, name := range names {
		items[i] = nfn(name, i)
	}
	return graph.Seq{Items: items}
}

// entryNode resolves the node a plan's entry dispatch list delivers to
// (valid for plans whose entry is a single ToNode distribute).
func entryNode(t *testing.T, p *Plan) int {
	t.Helper()
	if len(p.Entry) != 1 || len(p.Entry[0].Targets) != 1 || p.Entry[0].Targets[0].Kind != ToNode {
		t.Fatalf("entry is not a single node delivery: %+v", p.Entry)
	}
	return p.Entry[0].Targets[0].Node
}

// TestFusedSegmentsSeqChain: a strictly sequential chain fuses into
// one maximal segment, ordered execution-first from the entry node.
func TestFusedSegmentsSeqChain(t *testing.T) {
	p, err := CompilePlan(1, seqChainGraph(nfa.NFMonitor, nfa.NFL3Fwd, nfa.NFMonitor, nfa.NFL3Fwd, nfa.NFMonitor))
	if err != nil {
		t.Fatal(err)
	}
	segs := p.FusedSegments()
	if len(segs) != 1 || len(segs[0]) != 5 {
		t.Fatalf("segments = %v, want one maximal segment of 5", segs)
	}
	if segs[0][0] != entryNode(t, p) {
		t.Fatalf("segment head %d is not the entry node %d", segs[0][0], entryNode(t, p))
	}
	// The segment order must follow the forwarding tables: each node's
	// Next is a single distribute to its successor in the segment.
	for i := 0; i+1 < len(segs[0]); i++ {
		next := p.Nodes[segs[0][i]].Next
		if len(next) != 1 || len(next[0].Targets) != 1 || next[0].Targets[0].Node != segs[0][i+1] {
			t.Fatalf("segment order broken at position %d: %+v", i, next)
		}
	}
}

// TestFusedSegmentsParallelBoundaries: fan-outs and join continuations
// are never fused across — only the strictly sequential prefix fuses,
// parallel branches and the join continuation stay singleton segments.
func TestFusedSegmentsParallelBoundaries(t *testing.T) {
	g := graph.Seq{Items: []graph.Node{
		nfn(nfa.NFMonitor, 0),
		nfn(nfa.NFL3Fwd, 0),
		graph.Par{Branches: []graph.Node{nfn(nfa.NFMonitor, 1), nfn(nfa.NFMonitor, 2)}},
		nfn(nfa.NFL3Fwd, 1),
	}}
	p, err := CompilePlan(1, g)
	if err != nil {
		t.Fatal(err)
	}
	segs := p.FusedSegments()
	if len(segs) != 4 {
		t.Fatalf("segments = %v, want 4 (fused prefix + 2 branches + join continuation)", segs)
	}
	var fused [][]int
	for _, seg := range segs {
		if len(seg) > 1 {
			fused = append(fused, seg)
		}
	}
	if len(fused) != 1 || len(fused[0]) != 2 {
		t.Fatalf("fused segments = %v, want exactly the 2-NF sequential prefix", fused)
	}
	if fused[0][0] != entryNode(t, p) {
		t.Fatalf("fused prefix head %d is not the entry node %d", fused[0][0], entryNode(t, p))
	}
	// Every node appears in exactly one segment.
	seen := map[int]bool{}
	for _, seg := range segs {
		for _, id := range seg {
			if seen[id] {
				t.Fatalf("node %d appears in two segments: %v", id, segs)
			}
			seen[id] = true
		}
	}
	if len(seen) != len(p.Nodes) {
		t.Fatalf("segments cover %d of %d nodes: %v", len(seen), len(p.Nodes), segs)
	}
}

// TestFusionOffSingletons: FusionOff pins the pipelined layout — one
// runtime and one ring per NF — regardless of graph shape.
func TestFusionOffSingletons(t *testing.T) {
	s := New(Config{PoolSize: 64, Fusion: FusionOff})
	if err := s.AddGraph(1, seqChainGraph(nfa.NFMonitor, nfa.NFL3Fwd, nfa.NFMonitor)); err != nil {
		t.Fatal(err)
	}
	rts := nodesOf(s, 1)
	if len(rts) != 3 {
		t.Fatalf("fusion-off runtimes = %d, want 3", len(rts))
	}
	for _, n := range rts {
		if len(n.nfs) != 1 {
			t.Fatalf("fusion-off segment holds %d NFs, want 1", len(n.nfs))
		}
	}
	sOn := New(Config{PoolSize: 64})
	if err := sOn.AddGraph(1, seqChainGraph(nfa.NFMonitor, nfa.NFL3Fwd, nfa.NFMonitor)); err != nil {
		t.Fatal(err)
	}
	if rts := nodesOf(sOn, 1); len(rts) != 1 || len(rts[0].nfs) != 3 {
		t.Fatalf("default-fusion runtimes = %d, want one 3-NF segment", len(rts))
	}
}

// TestFusionDifferentialExampleGraphs is the tentpole equivalence
// gate: every example chain — compiled sequentially and with NFP
// parallelization — replayed with identical traffic must be
// observationally identical under the fused and pipelined engines at
// burst 1 and 32: same per-NF observation digests and packet counts,
// same final output bytes per PID, same drop intent, same copy count.
func TestFusionDifferentialExampleGraphs(t *testing.T) {
	chains := [][]string{
		{nfa.NFIDS, nfa.NFMonitor, nfa.NFLB},
		{nfa.NFVPN, nfa.NFMonitor, nfa.NFFirewall, nfa.NFLB},
		{nfa.NFMonitor, nfa.NFFirewall},
	}
	n := 400
	if testing.Short() {
		n = 96
	}
	for _, chain := range chains {
		for _, mode := range []struct {
			name string
			opts core.Options
		}{
			{"sequential", core.Options{NoParallelism: true}},
			{"parallel", core.Options{}},
		} {
			res, err := compileJoin(t, policy.FromChain(chain...), mode.opts)
			if err != nil {
				t.Fatalf("chain %v %s compile: %v", chain, mode.name, err)
			}
			for _, burst := range []int{1, 32} {
				t.Run(fmt.Sprintf("%v/%s/burst%d", chain, mode.name, burst), func(t *testing.T) {
					pipelined := runBurstChain(t, chain, res.Graph, n, burst, FusionOff)
					fused := runBurstChain(t, chain, res.Graph, n, burst, FusionOn)
					if diffs := diffBurstRuns(pipelined, fused); len(diffs) != 0 {
						t.Errorf("fused NOT equivalent to pipelined:\n  %v", diffs)
					}
				})
			}
		}
	}
}
