package core

import (
	"reflect"
	"strings"
	"testing"

	"nfp/internal/graph"
	"nfp/internal/nfa"
	"nfp/internal/policy"
)

// fig9HeavyNS is a 3000-cycle synthetic NF's busy time on the machine
// parallelStageNS was measured on (≈ 1.44 ns per cycle): a branch Fig 9
// shows winning.
const fig9HeavyNS = 4300

// withCosts is nfa.LookupProfile with the named NFs' costs overridden
// (0 = unknown).
func withCosts(costs map[string]int64) ProfileLookup {
	return func(name string) (nfa.Profile, bool) {
		p, ok := nfa.LookupProfile(name)
		if c, set := costs[name]; set {
			p.CostNS = c
		}
		return p, ok
	}
}

func mustCompile(t *testing.T, pol policy.Policy, lookup ProfileLookup) *Result {
	t.Helper()
	res, err := Compile(pol, lookup, Options{})
	if err != nil {
		t.Fatalf("Compile(%v): %v", pol.Rules, err)
	}
	if err := graph.Validate(res.Graph); err != nil {
		t.Fatalf("invalid graph %v: %v", res.Graph, err)
	}
	return res
}

// chainOf is the flat Seq of names.
func chainOf(names ...string) graph.Node {
	items := make([]graph.Node, len(names))
	for i, n := range names {
		items[i] = graph.NF{Name: n}
	}
	return graph.Seq{Items: items}
}

// TestCostRuleDecisions is the cost rule's decision table: the
// benchmark's light stages become chains, heavy branches, Priority
// pairs and unknown costs keep Algorithm 1's Par exactly.
func TestCostRuleDecisions(t *testing.T) {
	fml := policy.FromChain(nfa.NFFirewall, nfa.NFMonitor, nfa.NFLB)
	iml := policy.FromChain(nfa.NFIDS, nfa.NFMonitor, nfa.NFLB)
	vmfl := policy.FromChain(nfa.NFVPN, nfa.NFMonitor, nfa.NFFirewall, nfa.NFLB)

	t.Run("light stages become chains", func(t *testing.T) {
		for _, tc := range []struct {
			pol   policy.Policy
			chain []string
		}{
			{fml, []string{nfa.NFFirewall, nfa.NFMonitor, nfa.NFLB}},
			{iml, []string{nfa.NFIDS, nfa.NFMonitor, nfa.NFLB}},
			{vmfl, []string{nfa.NFVPN, nfa.NFMonitor, nfa.NFFirewall, nfa.NFLB}},
		} {
			res := mustCompile(t, tc.pol, nil)
			if want := chainOf(tc.chain...); !reflect.DeepEqual(res.Graph, want) {
				t.Errorf("%v: graph = %v, want %v", tc.chain, res.Graph, want)
			}
			free := mustCompile(t, tc.pol, nfa.LookupCostFree)
			if graph.MaxDegree(free.Graph) < 2 {
				t.Errorf("%v: Algorithm 1 made no stage (%v); nothing was decided", tc.chain, free.Graph)
			}
			if len(res.Stages) == 0 {
				t.Errorf("%v: no stage verdict recorded", tc.chain)
			}
			for _, st := range res.Stages {
				if st.Parallel || st.SumNS-st.MaxNS > st.LimitNS || st.LimitNS != parallelStageNS {
					t.Errorf("%v: stage %v", tc.chain, st)
				}
			}
		}
		// The stateful workloads' stage, as nfpcompile prints it.
		want := "[monitor || lb]  sequential  Σ 394 ns − max 227 ns = 167 ns ≤ 500 ns"
		if got := mustCompile(t, fml, nil).Stages[0].String(); got != want {
			t.Errorf("stage = %q, want %q", got, want)
		}
	})

	t.Run("heavy branches stay parallel", func(t *testing.T) {
		// monitor || lb needs a header copy and address merge ops: the
		// heavy compile must keep every one of them.
		heavy := withCosts(map[string]int64{nfa.NFMonitor: fig9HeavyNS, nfa.NFLB: fig9HeavyNS})
		for _, pol := range []policy.Policy{fml, iml} {
			res := mustCompile(t, pol, heavy)
			free := mustCompile(t, pol, nfa.LookupCostFree)
			if !reflect.DeepEqual(res.Graph, free.Graph) {
				t.Errorf("heavy graph %v, cost-free %v", res.Graph, free.Graph)
			}
			if graph.TotalCopies(res.Graph) != 1 || graph.MaxDegree(res.Graph) != 2 {
				t.Errorf("heavy graph %v: want one two-branch stage with one copy", res.Graph)
			}
			if st := res.Stages[0]; !st.Parallel || st.SumNS != 2*fig9HeavyNS || st.MaxNS != fig9HeavyNS {
				t.Errorf("stage = %+v", st)
			}
		}
	})

	t.Run("priority stays parallel at any cost", func(t *testing.T) {
		pol := policy.Policy{Rules: []policy.Rule{policy.Priority(nfa.NFLB, nfa.NFL3Fwd)}}
		for _, cost := range []int64{1, 43, fig9HeavyNS} {
			lookup := withCosts(map[string]int64{nfa.NFLB: cost, nfa.NFL3Fwd: cost})
			res := mustCompile(t, pol, lookup)
			free := mustCompile(t, pol, nfa.LookupCostFree)
			if !reflect.DeepEqual(res.Graph, free.Graph) {
				t.Errorf("cost %d: graph %v, cost-free %v", cost, res.Graph, free.Graph)
			}
			if _, ok := res.Graph.(graph.Par); !ok {
				t.Errorf("cost %d: graph %v, want Par", cost, res.Graph)
			}
			if st := res.Stages[0]; !st.Parallel || st.Reason != "Priority(lb > l3fwd)" {
				t.Errorf("cost %d: stage %v", cost, st)
			}
		}
	})

	t.Run("unknown cost leaves Algorithm 1's graph", func(t *testing.T) {
		for _, pol := range []policy.Policy{fml, iml, vmfl} {
			free := mustCompile(t, pol, nfa.LookupCostFree)
			for _, name := range pol.NFs() {
				res := mustCompile(t, pol, withCosts(map[string]int64{name: 0}))
				// Only stages containing the unknown NF keep their Par.
				for _, st := range res.Stages {
					if strings.Contains(st.Name, name) != st.Parallel {
						t.Errorf("%s unknown: stage %v", name, st)
					}
				}
			}
			unknown := map[string]int64{}
			for _, name := range pol.NFs() {
				unknown[name] = 0
			}
			if res := mustCompile(t, pol, withCosts(unknown)); !reflect.DeepEqual(res.Graph, free.Graph) {
				t.Errorf("all unknown: graph %v, cost-free %v", res.Graph, free.Graph)
			}
		}
		// One unknown branch among three keeps the whole stage.
		pol := policy.FromChain(nfa.NFMonitor, nfa.NFGateway, nfa.NFNIDS)
		res := mustCompile(t, pol, withCosts(map[string]int64{nfa.NFNIDS: 0}))
		if free := mustCompile(t, pol, nfa.LookupCostFree); !reflect.DeepEqual(res.Graph, free.Graph) {
			t.Errorf("graph %v, cost-free %v", res.Graph, free.Graph)
		}
		if st := res.Stages[0]; st.Reason != "cost of nids unknown" {
			t.Errorf("stage %v", st)
		}
	})

	t.Run("break-even is exclusive", func(t *testing.T) {
		pol := policy.FromChain(nfa.NFMonitor, nfa.NFLB)
		for _, tc := range []struct {
			light int64
			par   bool
		}{{parallelStageNS, false}, {parallelStageNS + 1, true}} {
			res := mustCompile(t, pol, withCosts(map[string]int64{nfa.NFMonitor: fig9HeavyNS, nfa.NFLB: tc.light}))
			if _, isPar := res.Graph.(graph.Par); isPar != tc.par {
				t.Errorf("lighter branch %d ns: graph %v, want parallel=%v", tc.light, res.Graph, tc.par)
			}
		}
	})

	t.Run("micrographs", func(t *testing.T) {
		// Two rule-free components, each a read-only pair: heavy ones
		// share a stage, light ones become one chain in mention order.
		pol := policy.Policy{Rules: []policy.Rule{
			policy.Order(nfa.NFMonitor, nfa.NFGateway),
			policy.Order(nfa.NFCaching, nfa.NFNIDS),
		}}
		heavy := map[string]int64{}
		for _, n := range pol.NFs() {
			heavy[n] = fig9HeavyNS
		}
		if res := mustCompile(t, pol, withCosts(heavy)); !reflect.DeepEqual(res.Graph, mustCompile(t, pol, nfa.LookupCostFree).Graph) {
			t.Errorf("heavy micrographs: graph %v", res.Graph)
		}
		res := mustCompile(t, pol, nil)
		if want := chainOf(nfa.NFMonitor, nfa.NFGateway, nfa.NFCaching, nfa.NFNIDS); !reflect.DeepEqual(res.Graph, want) {
			t.Errorf("light micrographs: graph %v, want %v", res.Graph, want)
		}
	})

	t.Run("no parallelism decides nothing", func(t *testing.T) {
		res, err := Compile(iml, nfa.LookupCostFree, Options{NoParallelism: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Stages) != 0 {
			t.Errorf("stages = %v", res.Stages)
		}
	})
}
