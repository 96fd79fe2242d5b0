package core

import (
	"fmt"
	"strconv"

	"nfp/internal/graph"
	"nfp/internal/policy"
	"nfp/internal/telemetry"
)

// parallelStageNS is what a parallel stage costs over a fused chain —
// a copy, a ring hand-off per branch and a merge — so a stage stays
// parallel only when Σ branch − max branch, the busy time its lighter
// branches take off the packet's path, exceeds it. It is the lighter
// branch's busy time at the measured Fig 9 break-even. Two 300-cycle
// synthetic NFs (≈ 430 ns each: half of Seq(3000) − Seq(300), over
// 2700 cycles) run at 933 ns/op fused and 1007 ns/op in parallel, so
// the stage's price is 430 + 74 ≈ 500 ns; two 3000-cycle ones run at
// 8687 and 4723 (`go test -run xxx -bench Fig9_ -benchtime 200000x
// -count 5 .`, medians, 2-vCPU Xeon VM). The micro-meters — header copy
// ≈ 33 ns, ring hand-off ≈ 2 ns, merger tail ≈ 93 ns — sum to about a
// quarter of it: they leave out the cross-core cache traffic the live
// pair pays.
const parallelStageNS = 500

// Stage is the cost rule's verdict on one candidate parallel stage:
// a set of branches Algorithm 1 allows to run side by side.
type Stage struct {
	// Name is the stage as its Par prints, branches in mention order.
	Name string
	// SumNS and MaxNS are the total and the largest branch cost, both 0
	// when some branch's cost is unknown. LimitNS is the break-even
	// Σ − max is held against.
	SumNS, MaxNS, LimitNS int64
	// Parallel is the verdict: true keeps the Par, false emits the
	// branches as a sequential segment.
	Parallel bool
	// Reason names what decided: a Priority rule, an unknown cost, or
	// the cost comparison itself.
	Reason string
}

func (s Stage) String() string {
	verdict := "sequential"
	if s.Parallel {
		verdict = "parallel"
	}
	return fmt.Sprintf("%s  %s  %s", s.Name, verdict, s.Reason)
}

// ExportStages publishes the verdicts as
// nfp_plan_stage_parallel{mid,stage}: 1 for a stage kept parallel, 0
// for one emitted as a chain, so a running server can say why a stage
// is or is not parallel.
func ExportStages(reg *telemetry.Registry, mid uint32, stages []Stage) {
	for _, st := range stages {
		v := int64(0)
		if st.Parallel {
			v = 1
		}
		reg.Gauge("nfp_plan_stage_parallel",
			telemetry.L("mid", strconv.FormatUint(uint64(mid), 10)), telemetry.L("stage", st.Name)).Set(v)
	}
}

// keepParallel decides whether a candidate stage stays parallel and
// records the verdict. It does iff a Priority rule joins two of its
// branches (the operator asked for parallelism), some branch's cost is
// unknown (Algorithm 1 decides alone, as in the paper), or the lighter
// branches cost more than parallelStageNS. A branch costs the sum of
// its NFs' costs.
func (c *compiler) keepParallel(branches []graph.Node) bool {
	st := c.judge(branches)
	c.stages = append(c.stages, st)
	return st.Parallel
}

func (c *compiler) judge(branches []graph.Node) Stage {
	st := Stage{Name: graph.Par{Branches: branches}.String(), LimitNS: parallelStageNS}
	if r, ok := c.priorityAcross(branches); ok {
		st.Parallel, st.Reason = true, r.String()
		return st
	}
	var sum, max int64
	for _, b := range branches {
		var cost int64
		for _, n := range graph.NFs(b) {
			nc := c.profiles[n.Name].CostNS
			if nc <= 0 {
				st.Parallel, st.Reason = true, fmt.Sprintf("cost of %s unknown", n.Name)
				return st
			}
			cost += nc
		}
		sum += cost
		if cost > max {
			max = cost
		}
	}
	st.SumNS, st.MaxNS = sum, max
	st.Parallel = sum-max > parallelStageNS
	cmp := "≤"
	if st.Parallel {
		cmp = ">"
	}
	st.Reason = fmt.Sprintf("Σ %d ns − max %d ns = %d ns %s %d ns", sum, max, sum-max, cmp, st.LimitNS)
	return st
}

// priorityAcross returns a Priority rule joining NFs of two different
// branches, if there is one.
func (c *compiler) priorityAcross(branches []graph.Node) (policy.Rule, bool) {
	for i, bi := range branches {
		for _, bj := range branches[i+1:] {
			for _, a := range graph.NFs(bi) {
				for _, b := range graph.NFs(bj) {
					if r, ok := c.priority[[2]string{a.Name, b.Name}]; ok {
						return r, true
					}
				}
			}
		}
	}
	return policy.Rule{}, false
}

// appendFlat appends n to items, splicing a Seq's items in, so a
// sequentialised stage joins the enclosing sequence.
func appendFlat(items []graph.Node, n graph.Node) []graph.Node {
	if s, ok := n.(graph.Seq); ok {
		return append(items, s.Items...)
	}
	return append(items, n)
}
