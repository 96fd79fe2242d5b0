// Package dataplane implements the NFP infrastructure (§5): the
// classifier, the distributed per-NF runtimes, and the joins that merge
// parallel copies, all communicating by packet references over ring
// buffers backed by a shared memory pool.
//
// A compiled service graph is lowered into an execution Plan — the
// moral equivalent of the paper's Classification Table, per-NF
// Forwarding Tables and merging table — and executed by one goroutine
// per NF runtime (the goroutine stands in for the paper's
// container-pinned-to-a-core). A join has no goroutine of its own: the
// runtime that delivers a packet's last tail merges it and sends it on.
package dataplane

import (
	"fmt"
	"hash/fnv"

	"nfp/internal/graph"
	"nfp/internal/packet"
)

// TargetKind says where a dispatched packet reference goes.
type TargetKind uint8

const (
	// ToNode delivers into an NF runtime's receive ring.
	ToNode TargetKind = iota
	// ToJoin delivers a branch tail to a join.
	ToJoin
	// ToOutput emits the packet from the service graph.
	ToOutput
)

// Target is one receiver of a packet reference.
type Target struct {
	Kind TargetKind
	// Tail is the branch a ToJoin target is the tail of, numbered from 0
	// in the join's branch order: the slot its tails take in a packet's
	// join frame. install refuses a plan of more tails than tailBudget.
	Tail uint16
	Node int // node index for ToNode
	Join int // join index for ToJoin
}

func (t Target) String() string {
	switch t.Kind {
	case ToNode:
		return fmt.Sprintf("node(%d)", t.Node)
	case ToJoin:
		return fmt.Sprintf("join(%d)", t.Join)
	case ToOutput:
		return "output"
	}
	return "target(?)"
}

// Dispatch is one forwarding-table action (§5.2). The executor holds a
// map version → burst, seeded with the burst being dispatched:
//
//   - NewVersion == 0: distribute(SrcVersion, Targets) — deliver the
//     held version to every target without copying.
//   - NewVersion != 0: copy(SrcVersion, NewVersion) followed by
//     distribute(NewVersion, Targets). An empty target list just
//     registers the copy for later dispatches (nested stages).
type Dispatch struct {
	SrcVersion uint8
	NewVersion uint8
	// FullCopy selects a full packet copy instead of Header-Only.
	FullCopy bool
	Targets  []Target
}

// PlanNode is one NF instance's slice of the plan: its identity plus
// its local forwarding-table entry.
type PlanNode struct {
	ID int
	NF graph.NF
	// Next runs after a Pass verdict.
	Next []Dispatch
	// DropTo is where a Drop verdict's nil packet goes: the nearest
	// enclosing join, or ToOutput (counted as an end-to-end drop).
	DropTo Target
}

// JoinSpec is one merge point: how many branch tails report, which
// versions exist, the merging operations, and the continuation.
type JoinSpec struct {
	ID int
	// ExpectTails is the CT "total count": the number of packet
	// references (including nil packets) the join must collect.
	ExpectTails int
	// BaseVersion is the join's "v1": the version that continues
	// downstream after merging.
	BaseVersion uint8
	// Versions lists every version reaching this join (base first).
	Versions []uint8
	// Ops are the merging operations with SrcVersion remapped from the
	// graph's group-local numbering to plan-global versions.
	Ops []graph.MergeOp
	// Next runs on the merged base packet.
	Next []Dispatch
	// DropTo propagates a drop past this join (nearest outer join or
	// output).
	DropTo Target
}

// Plan is a fully lowered service graph for one MID.
type Plan struct {
	MID   uint32
	Graph graph.Node
	Nodes []PlanNode
	Joins []JoinSpec
	// Entry is the classifier's action list for this MID.
	Entry []Dispatch
	// BaseVersion is the version the classifier stamps on arrivals.
	BaseVersion uint8
	// MaxVersion is the highest version used (pool sizing/diagnostics).
	MaxVersion uint8
}

// CompileHash is a structural fingerprint of the compiled plan — the
// /debug/config compile hash. Two compilations of the same policy
// yield the same hash, so an operator can tell a no-op reload from a
// real policy change at a glance. The graph's canonical string plus
// the lowered table shape is hashed; FNV-64a is plenty for an
// operator-facing identity check.
func (p *Plan) CompileHash() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d|%d|%d|%d", p.MID, p.Graph.String(),
		len(p.Nodes), len(p.Joins), p.BaseVersion, p.MaxVersion)
	return fmt.Sprintf("%016x", h.Sum64())
}

// CopiesPerPacket returns how many packet copies the plan makes per
// packet on the drop-free path.
func (p *Plan) CopiesPerPacket() int {
	n := copiesIn(p.Entry)
	for _, pn := range p.Nodes {
		n += copiesIn(pn.Next)
	}
	for _, j := range p.Joins {
		n += copiesIn(j.Next)
	}
	return n
}

// copiesIn counts the copy dispatches of one dispatch list.
func copiesIn(ds []Dispatch) int {
	n := 0
	for i := range ds {
		if ds[i].NewVersion != 0 {
			n++
		}
	}
	return n
}

// FusedSegments is the segment-fusion pass: it partitions the plan's
// nodes into maximal fusable segments — chains where every interior
// edge a→b is strictly sequential, meaning a's forwarding table is a
// single no-copy distribute to b alone and b has exactly one
// predecessor reference anywhere in the plan (entry, node, or join
// dispatch lists). Such an edge carries every packet a passes, and
// nothing else ever lands in b's ring, so the ring is pure overhead:
// the fused runtime invokes b on a's burst buffer directly.
//
// Copy dispatches, multi-target fan-outs and join continuations are
// never fused across (they are the graph's real branch/merge points),
// and drop routes cannot form fusion edges (DropTo is always a join or
// the output), so the segments follow from graph structure alone.
//
// Every node appears in exactly one segment, ordered execution-first;
// each segment's first node owns the receive ring.
func (p *Plan) FusedSegments() [][]int {
	n := len(p.Nodes)
	pred := make([]int, n)
	countTargets := func(ds []Dispatch) {
		for _, d := range ds {
			for _, t := range d.Targets {
				if t.Kind == ToNode {
					pred[t.Node]++
				}
			}
		}
	}
	countTargets(p.Entry)
	for i := range p.Nodes {
		countTargets(p.Nodes[i].Next)
	}
	for j := range p.Joins {
		countTargets(p.Joins[j].Next)
	}

	// succ[a] = b when edge a→b is fusable, else -1.
	succ := make([]int, n)
	fusedPred := make([]bool, n)
	for a := range p.Nodes {
		succ[a] = -1
		ds := p.Nodes[a].Next
		if len(ds) != 1 || ds[0].NewVersion != 0 || len(ds[0].Targets) != 1 {
			continue
		}
		t := ds[0].Targets[0]
		if t.Kind != ToNode {
			continue
		}
		b := t.Node
		if b == a || pred[b] != 1 {
			continue
		}
		succ[a] = b
		fusedPred[b] = true
	}

	segs := make([][]int, 0, n)
	placed := 0
	for i := 0; i < n; i++ {
		if fusedPred[i] {
			continue // interior/tail: emitted from its segment head
		}
		seg := []int{i}
		for next := succ[i]; next >= 0 && len(seg) <= n; next = succ[next] {
			seg = append(seg, next)
		}
		placed += len(seg)
		segs = append(segs, seg)
	}
	if placed != n {
		// A plan with a dispatch cycle (impossible from CompilePlan, but
		// plans are data) could strand nodes; run it unfused instead.
		return singletonSegments(n)
	}
	return segs
}

// singletonSegments is the pipelined layout: one segment per node.
func singletonSegments(n int) [][]int {
	segs := make([][]int, n)
	for i := 0; i < n; i++ {
		segs[i] = []int{i}
	}
	return segs
}

// CompilePlan lowers a validated service graph into an execution plan.
func CompilePlan(mid uint32, g graph.Node) (*Plan, error) {
	if err := graph.Validate(g); err != nil {
		return nil, fmt.Errorf("dataplane: %w", err)
	}
	p := &Plan{MID: mid, Graph: g, BaseVersion: 1, MaxVersion: 1}
	c := &planCompiler{plan: p}
	out := []Dispatch{{SrcVersion: 1, Targets: []Target{{Kind: ToOutput}}}}
	entry, err := c.compile(g, 1, out, Target{Kind: ToOutput})
	if err != nil {
		return nil, err
	}
	p.Entry = entry
	return p, nil
}

type planCompiler struct {
	plan *Plan
}

// newVersion allocates the next global packet version.
func (c *planCompiler) newVersion() (uint8, error) {
	if c.plan.MaxVersion >= packet.MaxVersion {
		return 0, fmt.Errorf("dataplane: graph needs more than %d packet versions", packet.MaxVersion)
	}
	c.plan.MaxVersion++
	return c.plan.MaxVersion, nil
}

// compile lowers node n, which receives packets of version cur, runs
// the continuation dispatch list cont when done, and reports drops to
// dropTo. It returns the dispatch list that delivers a held packet of
// version cur into n.
func (c *planCompiler) compile(n graph.Node, cur uint8, cont []Dispatch, dropTo Target) ([]Dispatch, error) {
	switch v := n.(type) {
	case graph.NF:
		id := len(c.plan.Nodes)
		c.plan.Nodes = append(c.plan.Nodes, PlanNode{
			ID: id, NF: v,
			Next:   cont,
			DropTo: dropTo,
		})
		return []Dispatch{{SrcVersion: cur, Targets: []Target{{Kind: ToNode, Node: id}}}}, nil

	case graph.Seq:
		// Compile back-to-front so each item's continuation is the
		// entry dispatch list of its successor.
		entry := cont
		for i := len(v.Items) - 1; i >= 0; i-- {
			var err error
			entry, err = c.compile(v.Items[i], cur, entry, dropTo)
			if err != nil {
				return nil, err
			}
		}
		return entry, nil

	case graph.Par:
		return c.compilePar(v, cur, cont, dropTo)
	}
	return nil, fmt.Errorf("dataplane: unknown node type %T", n)
}

// compilePar lowers a parallel stage: allocate a join, lower each
// branch with the join as continuation, and emit the fan-out dispatch
// list — distribute for the shared group, copy+distribute per copied
// group, concatenating nested stages' own dispatches.
func (c *planCompiler) compilePar(v graph.Par, cur uint8, cont []Dispatch, dropTo Target) ([]Dispatch, error) {
	joinID := len(c.plan.Joins)
	c.plan.Joins = append(c.plan.Joins, JoinSpec{}) // reserve the slot

	groups := v.NormGroups()
	spec := JoinSpec{
		ID:          joinID,
		BaseVersion: cur,
		Versions:    []uint8{cur},
		Next:        cont,
		DropTo:      dropTo,
	}

	// Assign global versions to copy groups.
	versionOfGroup := make([]uint8, len(groups))
	versionOfGroup[0] = cur
	for gi := 1; gi < len(groups); gi++ {
		nv, err := c.newVersion()
		if err != nil {
			return nil, err
		}
		versionOfGroup[gi] = nv
		spec.Versions = append(spec.Versions, nv)
	}

	// Remap merge ops from group-local versions to global versions.
	for _, op := range v.Ops {
		remapped := op
		if op.Kind != graph.OpRemove {
			if op.SrcVersion < 1 || int(op.SrcVersion) > len(groups) {
				return nil, fmt.Errorf("dataplane: merge op %v references group version %d of %d groups",
					op, op.SrcVersion, len(groups))
			}
			remapped.SrcVersion = versionOfGroup[op.SrcVersion-1]
		}
		spec.Ops = append(spec.Ops, remapped)
	}

	// Assemble the fan-out list: ALL copies are materialized before any
	// delivery, so no NF can mutate the original while copies are still
	// being taken from it.
	var entry []Dispatch
	for gi := 1; gi < len(groups); gi++ {
		full := len(v.FullCopy) > gi && v.FullCopy[gi]
		entry = append(entry, Dispatch{
			SrcVersion: cur, NewVersion: versionOfGroup[gi], FullCopy: full,
		})
	}
	for gi, g := range groups {
		gv := versionOfGroup[gi]
		for _, bi := range g {
			joinTarget := Target{Kind: ToJoin, Join: joinID, Tail: uint16(spec.ExpectTails)}
			tail := []Dispatch{{SrcVersion: gv, Targets: []Target{joinTarget}}}
			brEntry, err := c.compile(v.Branches[bi], gv, tail, joinTarget)
			if err != nil {
				return nil, err
			}
			entry = append(entry, brEntry...)
			spec.ExpectTails++
		}
	}
	c.plan.Joins[joinID] = spec
	return partitionCopies(entry), nil
}

// partitionCopies stably moves copy dispatches ahead of deliveries.
// A nested parallel stage embeds its own copy dispatches into the
// enclosing fan-out list; every copy must be taken before ANY NF can
// receive (and mutate) a shared version, so copies sort first. The
// stable order keeps copy-of-copy chains valid (sources always precede
// their dependents).
func partitionCopies(ds []Dispatch) []Dispatch {
	out := make([]Dispatch, 0, len(ds))
	for _, d := range ds {
		if d.NewVersion != 0 {
			out = append(out, d)
		}
	}
	for _, d := range ds {
		if d.NewVersion == 0 {
			out = append(out, d)
		}
	}
	return out
}
