package inspector

import (
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"nfp/internal/nfa"
	"nfp/internal/packet"
)

func TestInspectSourceBasic(t *testing.T) {
	src := `package mynf

func (x *MyNF) Process(p *packet.Packet) Verdict {
	if p.SrcIP() == blocked {
		return Drop
	}
	p.SetDstIP(target)
	return Pass
}
`
	prof, err := InspectSource("mynf", src)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(prof.Actions, nfa.Read(packet.FieldSrcIP)) {
		t.Error("missing read(sip)")
	}
	if !slices.Contains(prof.Actions, nfa.Write(packet.FieldDstIP)) {
		t.Error("missing write(dip)")
	}
	if !prof.Drops() {
		t.Error("missing drop")
	}
	if prof.AddsOrRemoves() {
		t.Error("phantom add/rm")
	}
	if prof.Name != "mynf" {
		t.Errorf("name = %q", prof.Name)
	}
}

func TestInspectSourceParseError(t *testing.T) {
	if _, err := InspectSource("bad", "not go code {{{"); err == nil {
		t.Error("parse error not reported")
	}
}

func TestInspectRealMonitor(t *testing.T) {
	// The inspector run against our own Monitor source must agree with
	// the catalog profile (this is the §5.4 workflow end-to-end).
	prof, err := InspectFile(nfa.NFMonitor, filepath.Join("..", "nf", "monitor.go"))
	if err != nil {
		t.Fatal(err)
	}
	declared, _ := nfa.LookupProfile(nfa.NFMonitor)
	if diffs := Diff(declared, prof); len(diffs) != 0 {
		t.Errorf("monitor profile inconsistent with code:\n%v", diffs)
	}
}

func TestInspectRealLoadBalancer(t *testing.T) {
	prof, err := InspectFile(nfa.NFLB, filepath.Join("..", "nf", "lb.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		check bool
		what  string
	}{
		{slices.Contains(prof.Actions, nfa.Write(packet.FieldSrcIP)), "write(sip)"},
		{slices.Contains(prof.Actions, nfa.Write(packet.FieldDstIP)), "write(dip)"},
		{slices.Contains(prof.Actions, nfa.Read(packet.FieldSrcPort)), "read(sport)"},
	} {
		if !want.check {
			t.Errorf("LB inspection missing %s: %v", want.what, prof)
		}
	}
	if prof.Drops() {
		t.Error("LB should not drop")
	}
}

// TestInspectSetTuple: a key handed back through SetTuple writes the
// fields assigned on it and no others; the same assignments in code that
// never calls SetTuple write nothing.
func TestInspectSetTuple(t *testing.T) {
	body := `package mynf

func (x *MyNF) Process(p *packet.Packet) Verdict {
	k, _ := p.FlowKey()
	k.Src, k.SrcPort = x.ext, x.port
	%s
	return Pass
}
`
	prof, err := InspectSource("mynf", fmt.Sprintf(body, "p.SetTuple(k)"))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(prof.Actions, nfa.Write(packet.FieldSrcIP)) || !slices.Contains(prof.Actions, nfa.Write(packet.FieldSrcPort)) {
		t.Errorf("missing write(sip)/write(sport): %v", prof)
	}
	if slices.Contains(prof.Actions, nfa.Write(packet.FieldDstIP)) || slices.Contains(prof.Actions, nfa.Write(packet.FieldDstPort)) {
		t.Errorf("phantom destination writes: %v", prof)
	}
	prof, err = InspectSource("mynf", fmt.Sprintf(body, "x.lookup(k)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.WriteSet()) != 0 {
		t.Errorf("a key that never goes back into the packet wrote %v", prof.WriteSet())
	}

	// The NAT rewrites through SetTuple alone: its declared profile
	// (R/W on the whole 5-tuple) must still follow from its source.
	nat, err := InspectFile(nfa.NFNAT, filepath.Join("..", "nf", "nat.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []packet.Field{packet.FieldSrcIP, packet.FieldDstIP, packet.FieldSrcPort, packet.FieldDstPort} {
		if !slices.Contains(nat.Actions, nfa.Read(f)) || !slices.Contains(nat.Actions, nfa.Write(f)) {
			t.Errorf("NAT inspection missing read or write of %v: %v", f, nat)
		}
	}
}

func TestInspectRealFirewall(t *testing.T) {
	prof, err := InspectFile(nfa.NFFirewall, filepath.Join("..", "nf", "firewall.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !prof.Drops() {
		t.Error("firewall inspection missed the drop")
	}
	if len(prof.WriteSet()) != 0 {
		t.Errorf("firewall writes = %v", prof.WriteSet())
	}
}

func TestInspectRealVPN(t *testing.T) {
	prof, err := InspectFile(nfa.NFVPN, filepath.Join("..", "nf", "vpn.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !prof.AddsOrRemoves() {
		t.Error("VPN inspection missed InsertAt (add/rm)")
	}
	if !prof.TouchesPayload() {
		t.Error("VPN inspection missed payload access")
	}
	if !slices.Contains(prof.Actions, nfa.Write(packet.FieldPayload)) {
		t.Error("VPN inspection missed the in-place Seal (payload write)")
	}
}

func TestDiffDirections(t *testing.T) {
	a := nfa.Profile{Name: "a", Actions: []nfa.Action{nfa.Read(packet.FieldSrcIP)}}
	b := nfa.Profile{Name: "a", Actions: []nfa.Action{nfa.Write(packet.FieldDstIP)}}
	diffs := Diff(a, b)
	if len(diffs) != 2 {
		t.Errorf("diffs = %v", diffs)
	}
	if len(Diff(a, a)) != 0 {
		t.Error("self-diff not empty")
	}
}

func TestInspectFileMissing(t *testing.T) {
	if _, err := InspectFile("x", "/no/such/file.go"); err == nil {
		t.Error("missing file not reported")
	}
}
