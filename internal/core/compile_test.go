package core

import (
	"strings"
	"testing"

	"nfp/internal/graph"
	"nfp/internal/nfa"
	"nfp/internal/packet"
	"nfp/internal/policy"
)

// compileOK compiles through the cost-free lookup: the tests below pin
// Algorithm 1's graphs, the paper's figures, and TestCostRuleDecisions
// pins what the cost rule makes of them.
func compileOK(t *testing.T, pol policy.Policy, opts Options) *Result {
	t.Helper()
	res, err := Compile(pol, nfa.LookupCostFree, opts)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if err := graph.Validate(res.Graph); err != nil {
		t.Fatalf("invalid graph: %v", err)
	}
	return res
}

// TestCompileNorthSouthChain reproduces the paper's Figure 13
// north-south compilation: Order(VPN, Monitor), Order(Monitor, FW),
// Order(FW, LB) must become VPN -> (Monitor || FW) -> LB with zero
// packet copies.
func TestCompileNorthSouthChain(t *testing.T) {
	pol := policy.FromChain(nfa.NFVPN, nfa.NFMonitor, nfa.NFFirewall, nfa.NFLB)
	res := compileOK(t, pol, Options{})
	g := res.Graph

	seq, ok := g.(graph.Seq)
	if !ok || len(seq.Items) != 3 {
		t.Fatalf("graph = %v, want 3-stage Seq", g)
	}
	if nf, ok := seq.Items[0].(graph.NF); !ok || nf.Name != nfa.NFVPN {
		t.Errorf("stage 0 = %v, want VPN", seq.Items[0])
	}
	par, ok := seq.Items[1].(graph.Par)
	if !ok || len(par.Branches) != 2 {
		t.Fatalf("stage 1 = %v, want Monitor||FW", seq.Items[1])
	}
	names := map[string]bool{}
	for _, b := range par.Branches {
		names[b.(graph.NF).Name] = true
	}
	if !names[nfa.NFMonitor] || !names[nfa.NFFirewall] {
		t.Errorf("parallel stage = %v", par)
	}
	if nf, ok := seq.Items[2].(graph.NF); !ok || nf.Name != nfa.NFLB {
		t.Errorf("stage 2 = %v, want LB", seq.Items[2])
	}
	// Zero resource overhead: Monitor and FW share the original copy.
	if graph.TotalCopies(g) != 0 {
		t.Errorf("copies = %d, want 0 (paper: 0%% overhead)", graph.TotalCopies(g))
	}
	if l := graph.EquivalentLength(g); l != 3 {
		t.Errorf("equivalent length = %d, want 3 (12.9%% latency cut)", l)
	}
}

// TestCompileWestEastChain reproduces Figure 13's west-east
// compilation: Order(IDS, Monitor), Order(Monitor, LB) must become
// IDS -> (Monitor || LB) with one header-only copy for the LB.
func TestCompileWestEastChain(t *testing.T) {
	pol := policy.FromChain(nfa.NFIDS, nfa.NFMonitor, nfa.NFLB)
	res := compileOK(t, pol, Options{})
	g := res.Graph

	seq, ok := g.(graph.Seq)
	if !ok || len(seq.Items) != 2 {
		t.Fatalf("graph = %v, want IDS -> (Monitor||LB)", g)
	}
	if nf, ok := seq.Items[0].(graph.NF); !ok || nf.Name != nfa.NFIDS {
		t.Fatalf("stage 0 = %v, want IDS", seq.Items[0])
	}
	par, ok := seq.Items[1].(graph.Par)
	if !ok || len(par.Branches) != 2 {
		t.Fatalf("stage 1 = %v", seq.Items[1])
	}
	// One copy (8.8% overhead at degree 2), header-only.
	if par.CopiesPerPacket() != 1 {
		t.Errorf("copies = %d, want 1", par.CopiesPerPacket())
	}
	for gi, full := range par.FullCopy {
		if full {
			t.Errorf("group %d is a full copy; LB needs only headers", gi)
		}
	}
	// The merge must pull the LB's rewritten addresses into v1.
	wantOps := map[string]bool{
		"modify(v1.sip, v2.sip)": false,
		"modify(v1.dip, v2.dip)": false,
	}
	for _, op := range par.Ops {
		if _, ok := wantOps[op.String()]; ok {
			wantOps[op.String()] = true
		}
	}
	for s, seen := range wantOps {
		if !seen {
			t.Errorf("merge ops %v missing %s", par.Ops, s)
		}
	}
	if l := graph.EquivalentLength(g); l != 2 {
		t.Errorf("equivalent length = %d, want 2 (35.9%% latency cut)", l)
	}
}

// TestCompileFig1b checks the Table 1 NFP policy (Position + two
// Orders) compiles to Figure 1(b).
func TestCompileFig1b(t *testing.T) {
	pol, err := policy.ParseString(`
		Position(vpn, first)
		Order(firewall, before, lb)
		Order(monitor, before, lb)
	`)
	if err != nil {
		t.Fatal(err)
	}
	res := compileOK(t, pol, Options{})
	seq, ok := res.Graph.(graph.Seq)
	if !ok || len(seq.Items) != 3 {
		t.Fatalf("graph = %v", res.Graph)
	}
	if nf, ok := seq.Items[0].(graph.NF); !ok || nf.Name != "vpn" {
		t.Errorf("head = %v, want vpn", seq.Items[0])
	}
	// firewall and monitor share a level; lb follows (its write set
	// conflicts with the firewall's drop).
	par, ok := seq.Items[1].(graph.Par)
	if !ok || len(par.Branches) != 2 {
		t.Fatalf("middle = %v, want firewall||monitor", seq.Items[1])
	}
	if nf, ok := seq.Items[2].(graph.NF); !ok || nf.Name != "lb" {
		t.Errorf("tail = %v, want lb", seq.Items[2])
	}
	if graph.EquivalentLength(res.Graph) != 3 {
		t.Errorf("length = %d, want 3", graph.EquivalentLength(res.Graph))
	}
}

func TestCompilePriorityForcesParallel(t *testing.T) {
	// Priority(IPS > firewall): both drop, Order analysis would chain
	// them, Priority forces a parallel stage.
	pol := policy.Policy{Rules: []policy.Rule{policy.Priority(nfa.NFIPS, nfa.NFFirewall)}}
	res := compileOK(t, pol, Options{})
	par, ok := res.Graph.(graph.Par)
	if !ok || len(par.Branches) != 2 {
		t.Fatalf("graph = %v, want Par", res.Graph)
	}
	if par.CopiesPerPacket() != 0 {
		t.Errorf("copies = %d; two read-only droppers share a copy", par.CopiesPerPacket())
	}
}

func TestCompileSequentialFallback(t *testing.T) {
	// NAT before LB is not parallelizable (§4.1's example): the
	// compiled graph must stay a sequential chain.
	pol := policy.FromChain(nfa.NFNAT, nfa.NFLB)
	res := compileOK(t, pol, Options{})
	seq, ok := res.Graph.(graph.Seq)
	if !ok || len(seq.Items) != 2 {
		t.Fatalf("graph = %v, want sequential", res.Graph)
	}
	if seq.Items[0].(graph.NF).Name != nfa.NFNAT {
		t.Errorf("NAT must stay first: %v", res.Graph)
	}
}

func TestCompileNoParallelismOption(t *testing.T) {
	pol := policy.FromChain(nfa.NFIDS, nfa.NFMonitor, nfa.NFLB)
	res := compileOK(t, pol, Options{NoParallelism: true})
	seq, ok := res.Graph.(graph.Seq)
	if !ok || len(seq.Items) != 3 {
		t.Fatalf("graph = %v, want flat chain", res.Graph)
	}
	for i, want := range []string{nfa.NFIDS, nfa.NFMonitor, nfa.NFLB} {
		if seq.Items[i].(graph.NF).Name != want {
			t.Errorf("item %d = %v, want %s", i, seq.Items[i], want)
		}
	}
	if graph.MaxDegree(res.Graph) != 1 {
		t.Errorf("degree = %d", graph.MaxDegree(res.Graph))
	}
}

func TestCompileFreeNFsRunInParallel(t *testing.T) {
	// Two rule-connected components plus compatibility: monitor+gateway
	// (read-only) and caching (free NF via position-less single rules).
	pol := policy.Policy{Rules: []policy.Rule{
		policy.Order(nfa.NFMonitor, nfa.NFGateway),
		policy.Order(nfa.NFCaching, nfa.NFNIDS),
	}}
	res := compileOK(t, pol, Options{})
	par, ok := res.Graph.(graph.Par)
	if !ok {
		t.Fatalf("graph = %v, want top-level Par of micrographs", res.Graph)
	}
	if got := graph.NFCount(par); got != 4 {
		t.Errorf("NF count = %d", got)
	}
	if graph.EquivalentLength(par) != 1 {
		t.Errorf("length = %d, want 1 (all read-only)", graph.EquivalentLength(par))
	}
}

func TestCompileIncompatibleMicrographsSequentialized(t *testing.T) {
	// Component 1: monitor->gateway (reads). Component 2: nat (writes
	// the whole tuple). NAT conflicts with the readers; the compiler
	// must sequentialize the micrographs and warn.
	pol := policy.Policy{Rules: []policy.Rule{
		policy.Order(nfa.NFMonitor, nfa.NFGateway),
		policy.Position(nfa.NFNAT, policy.Last),
	}}
	res := compileOK(t, pol, Options{})
	// NAT is pinned last; monitor||gateway first — no conflict here.
	seq, ok := res.Graph.(graph.Seq)
	if !ok || len(seq.Items) != 2 {
		t.Fatalf("graph = %v", res.Graph)
	}

	// Now as free components (no position): expect sequential layers
	// plus an operator warning.
	pol = policy.Policy{Rules: []policy.Rule{
		policy.Order(nfa.NFMonitor, nfa.NFGateway),
		policy.Order(nfa.NFNAT, nfa.NFProxy),
	}}
	res = compileOK(t, pol, Options{})
	if len(res.Warnings) == 0 {
		t.Error("no warning for dependent micrographs")
	}
	if graph.MaxDegree(res.Graph) < 2 {
		t.Errorf("graph = %v; compatible members should still parallelize", res.Graph)
	}
}

func TestCompileMonitorThenVPNParallelWithCopy(t *testing.T) {
	// Monitor before VPN: Table 3's (Read, Add/Rm) cell is orange —
	// parallelizable with a copy. The VPN (payload-touching) must own
	// the original v1 so the Monitor's copy stays header-only, and no
	// merge ops are needed (the VPN wrote v1 directly).
	pol := policy.FromChain(nfa.NFMonitor, nfa.NFVPN)
	res := compileOK(t, pol, Options{})
	par, ok := res.Graph.(graph.Par)
	if !ok {
		t.Fatalf("graph = %v, want Par", res.Graph)
	}
	if par.CopiesPerPacket() != 1 {
		t.Errorf("copies = %d, want 1", par.CopiesPerPacket())
	}
	groups := par.NormGroups()
	v1NF := par.Branches[groups[0][0]].(graph.NF).Name
	if v1NF != nfa.NFVPN {
		t.Errorf("v1 owner = %s, want VPN (payload-touching NFs keep the full original)", v1NF)
	}
	if par.FullCopy[1] {
		t.Error("monitor's copy should be header-only")
	}
	if len(par.Ops) != 0 {
		t.Errorf("ops = %v, want none (VPN writes v1 directly)", par.Ops)
	}
}

func TestCompileVPNFirstForcesSequential(t *testing.T) {
	// NIDS after VPN is sequential: everything downstream of an AddRm
	// NF must see the restructured packet.
	pol := policy.FromChain(nfa.NFVPN, nfa.NFNIDS)
	res := compileOK(t, pol, Options{})
	seq, ok := res.Graph.(graph.Seq)
	if !ok || len(seq.Items) != 2 || seq.Items[0].(graph.NF).Name != nfa.NFVPN {
		t.Fatalf("graph = %v, want VPN -> NIDS", res.Graph)
	}
}

func TestCompileNIDSThenVPNCopies(t *testing.T) {
	// NIDS (passive) before VPN: parallelizable with a FULL copy for
	// the VPN branch (it rewrites the payload), and merge ops that take
	// the VPN's payload and splice its AH header.
	pol := policy.FromChain(nfa.NFNIDS, nfa.NFVPN)
	res := compileOK(t, pol, Options{})
	par, ok := res.Graph.(graph.Par)
	if !ok {
		t.Fatalf("graph = %v, want Par", res.Graph)
	}
	if par.CopiesPerPacket() != 1 {
		t.Fatalf("copies = %d", par.CopiesPerPacket())
	}
	// The VPN touches the payload: whichever group it landed in must be
	// v1 (original) or a full copy.
	groups := par.NormGroups()
	vpnGroup := -1
	for gi, g := range groups {
		for _, bi := range g {
			if par.Branches[bi].(graph.NF).Name == nfa.NFVPN {
				vpnGroup = gi
			}
		}
	}
	if vpnGroup > 0 && !par.FullCopy[vpnGroup] {
		t.Errorf("VPN in copied group %d without FullCopy", vpnGroup)
	}
	var haveAdd, havePayload bool
	for _, op := range par.Ops {
		if op.Kind == graph.OpAdd && op.SrcField == packet.FieldAH {
			haveAdd = true
		}
		if op.Kind == graph.OpModify && op.DstField == packet.FieldPayload {
			havePayload = true
		}
	}
	if vpnGroup > 0 && (!haveAdd || !havePayload) {
		t.Errorf("ops = %v, want AH add and payload modify", par.Ops)
	}
	if vpnGroup == 0 {
		// NIDS got the copy; it reads the payload, so its copy must be
		// full and no ops are needed (VPN wrote v1 directly).
		if !par.FullCopy[1] {
			t.Errorf("NIDS copied group must be full copy")
		}
	}
}

func TestCompileMergeOpWinnerSemantics(t *testing.T) {
	// Two same-field writers forced parallel by Priority: the
	// high-priority NF's field must win, i.e. be the LAST modify op (or
	// sit in v1 with the loser's op suppressed).
	lookup := func(name string) (nfa.Profile, bool) {
		switch name {
		case "w1", "w2":
			return nfa.Profile{Name: name, Actions: []nfa.Action{
				nfa.Read(packet.FieldDstIP), nfa.Write(packet.FieldDstIP),
			}}, true
		}
		return nfa.Profile{}, false
	}
	pol := policy.Policy{Rules: []policy.Rule{policy.Priority("w2", "w1")}}
	res, err := Compile(pol, lookup, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, ok := res.Graph.(graph.Par)
	if !ok {
		t.Fatalf("graph = %v", res.Graph)
	}
	// Both write dip -> two copy groups. Winner w2 (high priority).
	if par.CopiesPerPacket() != 1 {
		t.Fatalf("copies = %d, want 1", par.CopiesPerPacket())
	}
	// Find w2's version; exactly one modify(dip) op must exist and pull
	// from w2 (if w2 is copied) or none (if w2 shares v1).
	w2Version := uint8(0)
	for gi, g := range par.NormGroups() {
		for _, bi := range g {
			if par.Branches[bi].(graph.NF).Name == "w2" {
				w2Version = uint8(gi + 1)
			}
		}
	}
	var dipOps []graph.MergeOp
	for _, op := range par.Ops {
		if op.DstField == packet.FieldDstIP {
			dipOps = append(dipOps, op)
		}
	}
	if w2Version == 1 {
		if len(dipOps) != 0 {
			t.Errorf("w2 in v1 but ops = %v (loser would overwrite winner)", dipOps)
		}
	} else {
		if len(dipOps) != 1 || dipOps[0].SrcVersion != w2Version {
			t.Errorf("dip ops = %v, want single modify from v%d", dipOps, w2Version)
		}
	}
}

func TestCompileDirtyReuseDisabledAddsCopies(t *testing.T) {
	lookup := func(name string) (nfa.Profile, bool) {
		switch name {
		case "r":
			return nfa.Profile{Name: "r", Actions: []nfa.Action{nfa.Read(packet.FieldSrcIP)}}, true
		case "w":
			return nfa.Profile{Name: "w", Actions: []nfa.Action{nfa.Write(packet.FieldDstPort)}}, true
		}
		return nfa.Profile{}, false
	}
	pol := policy.Policy{Rules: []policy.Rule{policy.Order("r", "w")}}

	res, err := Compile(pol, lookup, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if graph.TotalCopies(res.Graph) != 0 {
		t.Errorf("with dirty reuse: %d copies", graph.TotalCopies(res.Graph))
	}

	res, err = Compile(pol, lookup, Options{Analysis: nfa.Options{DisableDirtyMemoryReusing: true}})
	if err != nil {
		t.Fatal(err)
	}
	if graph.TotalCopies(res.Graph) != 1 {
		t.Errorf("without dirty reuse: %d copies, want 1", graph.TotalCopies(res.Graph))
	}
}

func TestCompileErrors(t *testing.T) {
	// Unknown NF.
	if _, err := Compile(policy.FromChain("mystery-nf"), nil, Options{}); err == nil ||
		!strings.Contains(err.Error(), "no action profile") {
		t.Errorf("unknown NF err = %v", err)
	}
	// Conflicting policy.
	bad := policy.Policy{Rules: []policy.Rule{
		policy.Order(nfa.NFMonitor, nfa.NFGateway),
		policy.Order(nfa.NFGateway, nfa.NFMonitor),
	}}
	if _, err := Compile(bad, nil, Options{}); err == nil ||
		!strings.Contains(err.Error(), "conflict") {
		t.Errorf("cycle err = %v", err)
	}
	// Empty policy.
	if _, err := Compile(policy.Policy{}, nil, Options{}); err == nil {
		t.Error("empty policy accepted")
	}
}

func TestCompilePositionContradictionWarns(t *testing.T) {
	pol := policy.Policy{Rules: []policy.Rule{
		policy.Position(nfa.NFVPN, policy.First),
		policy.Order(nfa.NFMonitor, nfa.NFVPN), // wants VPN after monitor
	}}
	res := compileOK(t, pol, Options{})
	found := false
	for _, w := range res.Warnings {
		if strings.Contains(w, "contradicts") {
			found = true
		}
	}
	if !found {
		t.Errorf("warnings = %v, want position contradiction", res.Warnings)
	}
}

func TestCompileSingleNF(t *testing.T) {
	res := compileOK(t, policy.FromChain(nfa.NFFirewall), Options{})
	if nf, ok := res.Graph.(graph.NF); !ok || nf.Name != nfa.NFFirewall {
		t.Errorf("graph = %v", res.Graph)
	}
}

func TestCompileLongReadOnlyChainFullyParallel(t *testing.T) {
	// A chain of read-only NFs collapses to a single parallel stage of
	// equivalent length 1.
	pol := policy.FromChain(nfa.NFMonitor, nfa.NFGateway, nfa.NFCaching, nfa.NFNIDS)
	res := compileOK(t, pol, Options{})
	if graph.EquivalentLength(res.Graph) != 1 {
		t.Errorf("length = %d, want 1: %v", graph.EquivalentLength(res.Graph), res.Graph)
	}
	if graph.TotalCopies(res.Graph) != 0 {
		t.Errorf("copies = %d, want 0", graph.TotalCopies(res.Graph))
	}
}
