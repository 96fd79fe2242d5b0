package nfa

import (
	"slices"
	"testing"

	"nfp/internal/packet"
)

func prof(name string, actions ...Action) Profile {
	return Profile{Name: name, Actions: actions}
}

func mustProfile(t *testing.T, name string) Profile {
	t.Helper()
	p, ok := LookupProfile(name)
	if !ok {
		t.Fatalf("no profile for %q", name)
	}
	return p
}

func TestDependencyTable(t *testing.T) {
	sip, dip := packet.FieldSrcIP, packet.FieldDstIP
	cases := []struct {
		name   string
		a1, a2 Action
		want   CellVerdict
	}{
		{"read-read", Read(sip), Read(sip), ParallelNoCopy},
		{"read-read diff", Read(sip), Read(dip), ParallelNoCopy},
		{"read-write same", Read(sip), Write(sip), ParallelWithCopy},
		{"read-write diff", Read(sip), Write(dip), ParallelNoCopy},
		{"read-addrm", Read(sip), AddRm(packet.FieldAH), ParallelWithCopy},
		{"read-drop", Read(sip), Drop(), ParallelNoCopy},
		{"write-read same", Write(sip), Read(sip), NotParallelizable},
		{"write-read diff", Write(sip), Read(dip), ParallelNoCopy},
		{"write-write same", Write(sip), Write(sip), ParallelWithCopy},
		{"write-write diff", Write(sip), Write(dip), ParallelNoCopy},
		{"write-addrm", Write(sip), AddRm(packet.FieldAH), ParallelWithCopy},
		{"write-drop", Write(sip), Drop(), ParallelNoCopy},
		{"addrm-read", AddRm(packet.FieldAH), Read(sip), NotParallelizable},
		{"addrm-write", AddRm(packet.FieldAH), Write(sip), NotParallelizable},
		{"addrm-addrm", AddRm(packet.FieldAH), AddRm(packet.FieldAH), NotParallelizable},
		{"addrm-drop", AddRm(packet.FieldAH), Drop(), NotParallelizable},
		{"drop-read", Drop(), Read(sip), NotParallelizable},
		{"drop-write", Drop(), Write(sip), NotParallelizable},
		{"drop-addrm", Drop(), AddRm(packet.FieldAH), NotParallelizable},
		{"drop-drop", Drop(), Drop(), NotParallelizable},
		// Field-overlap refinement through container fields.
		{"write-read via container", Write(packet.FieldIPHeader), Read(sip), NotParallelizable},
		{"read-write via container", Read(packet.FieldSrcPort), Write(packet.FieldL4Header), ParallelWithCopy},
	}
	for _, c := range cases {
		if got := Decide(c.a1, c.a2); got != c.want {
			t.Errorf("%s: Decide(%v,%v) = %v, want %v", c.name, c.a1, c.a2, got, c.want)
		}
	}
}

func TestAnalyzeMonitorThenFirewall(t *testing.T) {
	// The paper's Figure 1 example: Monitor before Firewall is
	// parallelizable without copying (north-south chain, 0% overhead).
	mon := mustProfile(t, NFMonitor)
	fw := mustProfile(t, NFFirewall)
	res := Analyze(mon, fw, Options{})
	if !res.Parallelizable || res.NeedCopy() {
		t.Errorf("Monitor→Firewall: %+v, want parallelizable/no-copy", res)
	}
	// The reverse is not: the Firewall may drop packets the Monitor
	// would then wrongly count.
	res = Analyze(fw, mon, Options{})
	if res.Parallelizable {
		t.Errorf("Firewall→Monitor parallelizable, want sequential")
	}
}

func TestAnalyzeMonitorThenLB(t *testing.T) {
	// West-east chain (Fig 13): Monitor before LB parallelizes WITH
	// copying (8.8% overhead = header-only copy at degree 2).
	mon := mustProfile(t, NFMonitor)
	lb := mustProfile(t, NFLB)
	res := Analyze(mon, lb, Options{})
	if !res.Parallelizable || !res.NeedCopy() {
		t.Errorf("Monitor→LB: %+v, want parallelizable/copy", res)
	}
	// Conflicts must name the rewritten address fields so the merger
	// can be programmed.
	foundSIP := false
	for _, c := range res.Conflicts {
		if c.A2.Op == OpWrite && c.A2.Field == packet.FieldSrcIP {
			foundSIP = true
		}
	}
	if !foundSIP {
		t.Errorf("conflicts %v missing read/write on src IP", res.Conflicts)
	}
}

func TestAnalyzeFirewallThenLB(t *testing.T) {
	// North-south chain keeps Firewall→LB sequential: the firewall may
	// drop, and the LB's connection state must not see dropped packets.
	fw := mustProfile(t, NFFirewall)
	lb := mustProfile(t, NFLB)
	if res := Analyze(fw, lb, Options{}); res.Parallelizable {
		t.Errorf("Firewall→LB parallelizable, want sequential")
	}
}

func TestAnalyzeNATThenLB(t *testing.T) {
	// §4.1's motivating conflict: NAT and LB both modify the
	// destination IP. Order(NAT, before, LB): NAT writes DIP, LB reads
	// DIP → write-read on the same field → sequential.
	nat := mustProfile(t, NFNAT)
	lb := mustProfile(t, NFLB)
	if res := Analyze(nat, lb, Options{}); res.Parallelizable {
		t.Errorf("NAT→LB parallelizable, want sequential")
	}
}

func TestAnalyzeVPNFirstOnly(t *testing.T) {
	// The VPN encapsulates; nothing ordered after it can run beside it.
	vpn := mustProfile(t, NFVPN)
	for _, other := range []string{NFFirewall, NFMonitor, NFLB, NFIDS} {
		o := mustProfile(t, other)
		if res := Analyze(vpn, o, Options{}); res.Parallelizable {
			t.Errorf("VPN→%s parallelizable, want sequential", other)
		}
	}
	// But a passive NIDS ordered *before* a VPN can run in parallel
	// with a copy (the NIDS reads the original; the VPN's output wins).
	ids := mustProfile(t, NFNIDS)
	res := Analyze(ids, vpn, Options{})
	if !res.Parallelizable || !res.NeedCopy() {
		t.Errorf("IDS→VPN: %+v, want parallelizable/copy", res)
	}
}

func TestAnalyzeSameNFPairs(t *testing.T) {
	// Read-only NFs self-parallelize without copies (Fig 8's no-copy
	// setups); drop-capable NFs do not under Order analysis (the
	// evaluation forces those with Priority rules).
	for _, c := range []struct {
		nf       string
		parallel bool
		copy     bool
	}{
		{NFMonitor, true, false},
		{NFNIDS, true, false},
		{NFIDS, false, false}, // inline IDS can drop
		{NFL3Fwd, true, false},
		{NFFirewall, false, false},
		{NFLB, false, false}, // writes then reads the same addresses
	} {
		p := mustProfile(t, c.nf)
		res := Analyze(p, p, Options{})
		if res.Parallelizable != c.parallel || res.NeedCopy() != c.copy {
			t.Errorf("%s self-pair: parallel=%v copy=%v, want %v/%v",
				c.nf, res.Parallelizable, res.NeedCopy(), c.parallel, c.copy)
		}
	}
}

func TestDirtyMemoryReusingSwitch(t *testing.T) {
	// Two NFs writing disjoint fields share a copy with OP#1 on, and
	// need a copy with it off.
	a := prof("a", Read(packet.FieldSrcIP), Write(packet.FieldSrcIP))
	b := prof("b", Write(packet.FieldDstPort))
	on := Analyze(a, b, Options{})
	if !on.Parallelizable || on.NeedCopy() {
		t.Errorf("with dirty reuse: %+v, want no-copy", on)
	}
	off := Analyze(a, b, Options{DisableDirtyMemoryReusing: true})
	if !off.Parallelizable || !off.NeedCopy() {
		t.Errorf("without dirty reuse: %+v, want copy", off)
	}
}

func TestAnalyzeEmptyProfiles(t *testing.T) {
	// The traffic shaper touches nothing; it parallelizes with any NF
	// that neither drops nor restructures packets.
	shaper := mustProfile(t, NFShaper)
	lb := mustProfile(t, NFLB)
	if res := Analyze(shaper, lb, Options{}); !res.Parallelizable || res.NeedCopy() {
		t.Errorf("shaper→LB: %+v", res)
	}
	if res := Analyze(lb, shaper, Options{}); !res.Parallelizable || res.NeedCopy() {
		t.Errorf("LB→shaper: %+v", res)
	}
}

// TestDropAndAddRmRowsBindActionlessNF2: Table 3's (Drop, ·) and
// (Add/Rm, ·) rows hold when NF2 has no actions at all. The shaper counts
// every packet it sees, so beside an NF that drops or restructures it
// would count packets the sequential chain never hands it.
func TestDropAndAddRmRowsBindActionlessNF2(t *testing.T) {
	shaper := mustProfile(t, NFShaper)
	for _, name := range []string{NFNAT, NFFirewall, NFIPS, NFVPN} {
		if res := Analyze(mustProfile(t, name), shaper, Options{}); res.Parallelizable {
			t.Errorf("%s→shaper: %+v, want not parallelizable", name, res)
		}
	}
	// The rows bind NF1 only: NF2's drop stays the merger's to reconcile.
	if res := Analyze(shaper, mustProfile(t, NFFirewall), Options{}); !res.Parallelizable || res.NeedCopy() {
		t.Errorf("shaper→firewall: %+v, want parallel without a copy", res)
	}
}

func TestParallelizablePairStats(t *testing.T) {
	// Reproduces §4.3: "53.8% NF pairs can work in parallel...41.5%
	// without causing extra resource overhead" and §6.3.2's "packet
	// copying is only necessary in 12.3% situations". Our catalog's
	// resolution of ambiguous Table 2 rows lands within a few points of
	// the paper; the tolerances here pin the reproduced shape.
	st := WeightedPairStats(DefaultCatalog(), Options{})
	if st.Pairs != 36 { // six NFs carry deployment shares
		t.Errorf("pairs = %d, want 36", st.Pairs)
	}
	if st.Parallelizable < 0.45 || st.Parallelizable > 0.62 {
		t.Errorf("parallelizable = %.3f, want ≈0.538", st.Parallelizable)
	}
	if st.NoCopy < 0.33 || st.NoCopy > 0.50 {
		t.Errorf("no-copy = %.3f, want ≈0.415", st.NoCopy)
	}
	if st.WithCopy < 0.05 || st.WithCopy > 0.20 {
		t.Errorf("with-copy = %.3f, want ≈0.123", st.WithCopy)
	}
	if diff := st.Parallelizable - st.NoCopy - st.WithCopy; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("fractions inconsistent: %.3f != %.3f + %.3f",
			st.Parallelizable, st.NoCopy, st.WithCopy)
	}
}

func TestWeightedPairStatsDirtyReuseAblation(t *testing.T) {
	// Disabling Dirty Memory Reusing can only move no-copy pairs into
	// the with-copy bucket; total parallelizable share is unchanged.
	on := WeightedPairStats(DefaultCatalog(), Options{})
	off := WeightedPairStats(DefaultCatalog(), Options{DisableDirtyMemoryReusing: true})
	if off.Parallelizable != on.Parallelizable {
		t.Errorf("parallelizable changed: %.3f -> %.3f", on.Parallelizable, off.Parallelizable)
	}
	if off.NoCopy > on.NoCopy {
		t.Errorf("no-copy grew without dirty reuse: %.3f -> %.3f", on.NoCopy, off.NoCopy)
	}
}

func TestProfileHelpers(t *testing.T) {
	lb := mustProfile(t, NFLB)
	if !slices.Contains(lb.Actions, Read(packet.FieldSrcPort)) || !slices.Contains(lb.WriteSet(), packet.FieldSrcIP) {
		t.Error("LB profile helpers wrong")
	}
	if lb.Drops() || lb.AddsOrRemoves() || lb.TouchesPayload() {
		t.Error("LB should not drop/addrm/touch payload")
	}
	vpn := mustProfile(t, NFVPN)
	if !vpn.AddsOrRemoves() || !vpn.TouchesPayload() {
		t.Error("VPN profile helpers wrong")
	}
	fw := mustProfile(t, NFFirewall)
	if !fw.Drops() {
		t.Error("firewall should drop")
	}
	ws := lb.WriteSet()
	if len(ws) != 2 {
		t.Errorf("LB write set = %v", ws)
	}
}

func TestCatalogIntegrity(t *testing.T) {
	cat := DefaultCatalog()
	if len(cat) != 11 {
		t.Errorf("catalog rows = %d, want 11 (Table 2)", len(cat))
	}
	var share float64
	names := map[string]bool{}
	for _, p := range cat {
		if names[p.Name] {
			t.Errorf("duplicate catalog row %q", p.Name)
		}
		names[p.Name] = true
		share += p.DeployShare
	}
	if share < 0.91 || share > 0.93 { // 26+20+19+10+10+7 = 92%
		t.Errorf("total deploy share = %.2f, want 0.92", share)
	}
	if _, ok := LookupProfile("no-such-nf"); ok {
		t.Error("LookupProfile invented a profile")
	}
	for _, name := range []string{NFL3Fwd, NFMonitor, NFIDS, NFSynthetic, NFFirewall, NFLB, NFVPN} {
		if _, ok := LookupProfile(name); !ok {
			t.Errorf("eval profile %q missing", name)
		}
	}
}

// TestLookupProfileReturnsACopy: the builtin catalog is built once, so
// a caller that writes into or appends to a looked-up profile's Actions
// must not change what the next lookup of that name returns.
func TestLookupProfileReturnsACopy(t *testing.T) {
	for _, name := range Names() {
		want := slices.Clone(mustProfile(t, name).Actions)
		p := mustProfile(t, name)
		if len(p.Actions) > 0 {
			p.Actions[0] = Write(packet.FieldTTL)
			_ = append(p.Actions[:1], Drop(), Drop())
		}
		p.Actions = append(p.Actions, Drop())
		if got := mustProfile(t, name).Actions; !slices.Equal(got, want) {
			t.Errorf("%s: after the caller's edits a lookup returns %v, want %v", name, got, want)
		}
	}
}

func TestStringers(t *testing.T) {
	if Drop().String() != "drop" {
		t.Errorf("Drop String = %q", Drop().String())
	}
	if Read(packet.FieldSrcIP).String() != "read(sip)" {
		t.Errorf("Read String = %q", Read(packet.FieldSrcIP).String())
	}
	if Op(99).String() != "op(99)" {
		t.Errorf("bad op string %q", Op(99).String())
	}
}
