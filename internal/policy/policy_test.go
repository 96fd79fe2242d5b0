package policy

import (
	"strings"
	"testing"
)

func TestFromChainEquivalence(t *testing.T) {
	// Table 1: the traditional description of Fig 1(a) equals three
	// consecutive Order rules.
	p := FromChain("VPN", "Monitor", "FW", "LB")
	want := []Rule{
		Order("VPN", "Monitor"),
		Order("Monitor", "FW"),
		Order("FW", "LB"),
	}
	if len(p.Rules) != len(want) {
		t.Fatalf("rules = %v", p.Rules)
	}
	for i := range want {
		if p.Rules[i] != want[i] {
			t.Errorf("rule %d = %v, want %v", i, p.Rules[i], want[i])
		}
	}
}

func TestFromChainSingleNF(t *testing.T) {
	p := FromChain("FW")
	if len(p.Rules) != 1 || p.Rules[0].Kind != KindPosition {
		t.Fatalf("rules = %v", p.Rules)
	}
	if got := p.NFs(); len(got) != 1 || got[0] != "FW" {
		t.Errorf("NFs = %v", got)
	}
}

func TestNFsOrderAndDedup(t *testing.T) {
	p := Policy{Rules: []Rule{
		Position("VPN", First),
		Order("FW", "LB"),
		Order("Monitor", "LB"),
		Priority("IPS", "FW"),
	}}
	got := p.NFs()
	want := []string{"VPN", "FW", "LB", "Monitor", "IPS"}
	if len(got) != len(want) {
		t.Fatalf("NFs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("NFs[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestValidateDetectsOrderCycle(t *testing.T) {
	// §3: "an operator could write two rules with conflicting orders".
	p := Policy{Rules: []Rule{Order("A", "B"), Order("B", "A")}}
	cs := p.Validate()
	if len(cs) != 1 || !strings.Contains(cs[0].Reason, "cycle") {
		t.Fatalf("conflicts = %v", cs)
	}
	// Longer cycle through three rules.
	p = Policy{Rules: []Rule{Order("A", "B"), Order("B", "C"), Order("C", "A")}}
	if cs := p.Validate(); len(cs) != 1 {
		t.Fatalf("three-rule cycle conflicts = %v", cs)
	}
}

func TestValidateAcceptsDAG(t *testing.T) {
	p := Policy{Rules: []Rule{
		Order("A", "B"), Order("A", "C"), Order("B", "D"), Order("C", "D"),
	}}
	if cs := p.Validate(); len(cs) != 0 {
		t.Errorf("valid DAG reported conflicts: %v", cs)
	}
}

func TestValidateDetectsPositionConflict(t *testing.T) {
	// §3: "assign an NF at different positions".
	p := Policy{Rules: []Rule{Position("NF1", First), Position("NF1", Last)}}
	cs := p.Validate()
	if len(cs) != 1 || !strings.Contains(cs[0].Reason, "first and last") {
		t.Fatalf("conflicts = %v", cs)
	}
}

func TestValidateDetectsDegenerateRules(t *testing.T) {
	p := Policy{Rules: []Rule{Order("A", "A")}}
	if cs := p.Validate(); len(cs) != 1 {
		t.Errorf("self-order conflicts = %v", cs)
	}
	p = Policy{Rules: []Rule{Order("", "B")}}
	if cs := p.Validate(); len(cs) != 1 {
		t.Errorf("empty-name conflicts = %v", cs)
	}
}

func TestParseTable1Policy(t *testing.T) {
	// The third row of Table 1 verbatim.
	text := `
		# NFP Policy for the service graph in Fig 1(b)
		Position(VPN, first)
		Order(FW, before, LB)
		Order(Monitor, before, LB)
	`
	p, err := ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	want := []Rule{
		Position("VPN", First),
		Order("FW", "LB"),
		Order("Monitor", "LB"),
	}
	if len(p.Rules) != len(want) {
		t.Fatalf("rules = %v", p.Rules)
	}
	for i := range want {
		if p.Rules[i] != want[i] {
			t.Errorf("rule %d = %v, want %v", i, p.Rules[i], want[i])
		}
	}
}

func TestParsePriorityAndChain(t *testing.T) {
	p, err := ParseString(`
		Priority(IPS > Firewall)
		Chain(VPN, Monitor, FW)
		Position(Out, last)
	`)
	if err != nil {
		t.Fatal(err)
	}
	want := []Rule{
		Priority("IPS", "Firewall"),
		Order("VPN", "Monitor"),
		Order("Monitor", "FW"),
		Position("Out", Last),
	}
	if len(p.Rules) != len(want) {
		t.Fatalf("rules = %v", p.Rules)
	}
	for i := range want {
		if p.Rules[i] != want[i] {
			t.Errorf("rule %d = %v, want %v", i, p.Rules[i], want[i])
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"Frobnicate(A, B)",
		"Order(A, B)",
		"Order(A, after, B)",
		"Priority(A < B)",
		"Priority(>)",
		"Position(A, middle)",
		"Position(A)",
		"Chain()",
		"Order A before B",
	} {
		if _, err := ParseString(bad); err == nil {
			t.Errorf("no error for %q", bad)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	// String() output re-parses to the same policy.
	orig := Policy{Rules: []Rule{
		Position("VPN", First),
		Order("FW", "LB"),
		Priority("IPS", "FW"),
		Position("Tail", Last),
	}}
	p, err := ParseString(orig.String())
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if len(p.Rules) != len(orig.Rules) {
		t.Fatalf("rules = %v", p.Rules)
	}
	for i := range orig.Rules {
		if p.Rules[i] != orig.Rules[i] {
			t.Errorf("rule %d = %v, want %v", i, p.Rules[i], orig.Rules[i])
		}
	}
}

func TestRuleStrings(t *testing.T) {
	cases := map[string]Rule{
		"Order(A, before, B)": Order("A", "B"),
		"Priority(A > B)":     Priority("A", "B"),
		"Position(A, first)":  Position("A", First),
		"Position(A, last)":   Position("A", Last),
	}
	for want, r := range cases {
		if got := r.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}
