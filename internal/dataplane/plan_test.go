package dataplane

import (
	"strings"
	"testing"

	"nfp/internal/graph"
	"nfp/internal/packet"
)

func nfn(name string, inst int) graph.NF { return graph.NF{Name: name, Instance: inst} }

func TestCompilePlanSequential(t *testing.T) {
	g := graph.Seq{Items: []graph.Node{nfn("a", 0), nfn("b", 0), nfn("c", 0)}}
	p, err := CompilePlan(1, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Nodes) != 3 || len(p.Joins) != 0 {
		t.Fatalf("nodes=%d joins=%d", len(p.Nodes), len(p.Joins))
	}
	// Entry delivers to the first node; each node forwards to the next;
	// the last outputs.
	if p.Entry[0].Targets[0] != (Target{Kind: ToNode, Node: first(t, p, "a")}) {
		t.Errorf("entry = %v", p.Entry)
	}
	aNext := p.Nodes[first(t, p, "a")].Next
	if aNext[0].Targets[0].Kind != ToNode {
		t.Errorf("a.Next = %v", aNext)
	}
	cNext := p.Nodes[first(t, p, "c")].Next
	if cNext[0].Targets[0].Kind != ToOutput {
		t.Errorf("c.Next = %v", cNext)
	}
	if p.CopiesPerPacket() != 0 {
		t.Errorf("copies = %d", p.CopiesPerPacket())
	}
	// Drops anywhere in a join-free chain go to output accounting.
	for _, n := range p.Nodes {
		if n.DropTo.Kind != ToOutput {
			t.Errorf("node %v DropTo = %v", n.NF, n.DropTo)
		}
	}
}

func first(t *testing.T, p *Plan, name string) int {
	t.Helper()
	for _, n := range p.Nodes {
		if n.NF.Name == name {
			return n.ID
		}
	}
	t.Fatalf("no node %q", name)
	return -1
}

func TestCompilePlanSharedParallel(t *testing.T) {
	g := graph.Par{Branches: []graph.Node{nfn("a", 0), nfn("b", 0)}}
	p, err := CompilePlan(1, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Joins) != 1 {
		t.Fatalf("joins = %d", len(p.Joins))
	}
	j := p.Joins[0]
	if j.ExpectTails != 2 || j.BaseVersion != 1 || len(j.Versions) != 1 {
		t.Errorf("join = %+v", j)
	}
	if p.CopiesPerPacket() != 0 {
		t.Errorf("copies = %d", p.CopiesPerPacket())
	}
	// Both branch tails deliver to the join, each as its own tail.
	for i, n := range p.Nodes {
		want := Target{Kind: ToJoin, Join: 0, Tail: uint16(i)}
		if n.Next[0].Targets[0] != want {
			t.Errorf("node %v Next = %v", n.NF, n.Next)
		}
		if n.DropTo != want {
			t.Errorf("node %v DropTo = %v", n.NF, n.DropTo)
		}
	}
}

func TestCompilePlanCopyGroups(t *testing.T) {
	g := graph.Par{
		Branches: []graph.Node{nfn("mon", 0), nfn("lb", 0)},
		Groups:   [][]int{{0}, {1}},
		FullCopy: []bool{false, false},
		Ops: []graph.MergeOp{{
			Kind: graph.OpModify, SrcVersion: 2,
			SrcField: packet.FieldSrcIP, DstField: packet.FieldSrcIP,
		}},
	}
	p, err := CompilePlan(1, g)
	if err != nil {
		t.Fatal(err)
	}
	if p.CopiesPerPacket() != 1 {
		t.Errorf("copies = %d", p.CopiesPerPacket())
	}
	if p.MaxVersion != 2 {
		t.Errorf("max version = %d", p.MaxVersion)
	}
	j := p.Joins[0]
	if len(j.Ops) != 1 || j.Ops[0].SrcVersion != 2 {
		t.Errorf("ops = %v", j.Ops)
	}
	// Entry: one copy dispatch plus two deliveries.
	var copies int
	for _, d := range p.Entry {
		if d.NewVersion != 0 {
			copies++
			if d.FullCopy {
				t.Error("unexpected full copy")
			}
		}
	}
	if copies != 1 {
		t.Errorf("entry copies = %d: %v", copies, p.Entry)
	}
}

func TestCompilePlanNestedPar(t *testing.T) {
	// a -> (b || (c -> (d || e))) exercises nested joins.
	inner := graph.Par{Branches: []graph.Node{nfn("d", 0), nfn("e", 0)}}
	branch := graph.Seq{Items: []graph.Node{nfn("c", 0), inner}}
	g := graph.Seq{Items: []graph.Node{
		nfn("a", 0),
		graph.Par{Branches: []graph.Node{nfn("b", 0), branch}},
	}}
	p, err := CompilePlan(1, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Joins) != 2 {
		t.Fatalf("joins = %d", len(p.Joins))
	}
	// The inner join's continuation must point at the outer join, and
	// its drop target likewise.
	var innerJoin, outerJoin JoinSpec
	for _, j := range p.Joins {
		if j.ExpectTails == 2 && j.Next[0].Targets[0].Kind == ToJoin {
			innerJoin = j
		}
		if j.Next[0].Targets[0].Kind == ToOutput {
			outerJoin = j
		}
	}
	if innerJoin.DropTo.Kind != ToJoin {
		t.Errorf("inner join DropTo = %v", innerJoin.DropTo)
	}
	if outerJoin.ExpectTails != 2 {
		t.Errorf("outer join expects %d tails", outerJoin.ExpectTails)
	}
	// d and e report to the inner join; their drop target is the inner
	// join too.
	dNode := p.Nodes[first(t, p, "d")]
	if dNode.DropTo.Kind != ToJoin || dNode.DropTo.Join != innerJoin.ID {
		t.Errorf("d DropTo = %v, inner = %d", dNode.DropTo, innerJoin.ID)
	}
}

func TestCompilePlanBranchStartingWithPar(t *testing.T) {
	// A Par branch that is itself a Par (no NF in front) must still
	// lower correctly via dispatch-list concatenation.
	inner := graph.Par{Branches: []graph.Node{nfn("x", 0), nfn("y", 0)}}
	g := graph.Par{Branches: []graph.Node{nfn("a", 0), inner}}
	p, err := CompilePlan(1, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Joins) != 2 {
		t.Fatalf("joins = %d", len(p.Joins))
	}
	if len(p.Nodes) != 3 {
		t.Fatalf("nodes = %d", len(p.Nodes))
	}
}

func TestCompilePlanVersionExhaustion(t *testing.T) {
	// 16 copy groups exceed the 4-bit version space.
	branches := make([]graph.Node, 16)
	groups := make([][]int, 16)
	for i := range branches {
		branches[i] = nfn("w", i)
		groups[i] = []int{i}
	}
	g := graph.Par{Branches: branches, Groups: groups}
	if _, err := CompilePlan(1, g); err == nil ||
		!strings.Contains(err.Error(), "versions") {
		t.Errorf("err = %v", err)
	}
}

func TestCompilePlanRejectsInvalidGraph(t *testing.T) {
	if _, err := CompilePlan(1, graph.Seq{}); err == nil {
		t.Error("empty Seq accepted")
	}
	bad := graph.Par{
		Branches: []graph.Node{nfn("a", 0), nfn("b", 0)},
		Groups:   [][]int{{0}, {1}},
		Ops: []graph.MergeOp{{
			Kind: graph.OpModify, SrcVersion: 9,
			SrcField: packet.FieldSrcIP, DstField: packet.FieldSrcIP,
		}},
	}
	if _, err := CompilePlan(1, bad); err == nil {
		t.Error("out-of-range op version accepted")
	}
}

func TestTargetStrings(t *testing.T) {
	if (Target{Kind: ToNode, Node: 3}).String() != "node(3)" {
		t.Error("node string")
	}
	if (Target{Kind: ToJoin, Join: 2}).String() != "join(2)" {
		t.Error("join string")
	}
	if (Target{Kind: ToOutput}).String() != "output" {
		t.Error("output string")
	}
}
