package nf

import (
	"strings"
	"testing"

	"nfp/internal/packet"
)

const sampleRules = `
# web attack signatures
alert tcp any any -> any 80 (content:"/etc/passwd"; msg:"path traversal"; sid:1001;)
drop tcp 10.0.0.0/8 any -> any any (content:"EXPLOIT"; msg:"known exploit"; sid:1002;)
alert udp any 53 -> any any (content:"tunnel"; msg:"dns tunnel"; sid:1003;)
drop ip any any -> 10.100.0.1 any (content:"PAYLOAD;WITH;SEMI"; msg:"quoted \"semi\""; sid:1004;)
`

// parseRules parses a rule file held in a string.
func parseRules(s string) ([]IDSRule, error) { return ParseIDSRules(strings.NewReader(s)) }

func TestParseIDSRules(t *testing.T) {
	rules, err := parseRules(sampleRules)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 4 {
		t.Fatalf("rules = %d", len(rules))
	}
	r := rules[0]
	if r.Action != "alert" || r.Proto != packet.ProtoTCP || r.DstPort != 80 ||
		string(r.Content) != "/etc/passwd" || r.SID != 1001 {
		t.Errorf("rule 0 = %+v", r)
	}
	if rules[1].Src.String() != "10.0.0.0/8" || rules[1].Action != "drop" {
		t.Errorf("rule 1 = %+v", rules[1])
	}
	if rules[2].SrcPort != 53 || rules[2].Proto != packet.ProtoUDP {
		t.Errorf("rule 2 = %+v", rules[2])
	}
	// Quoted semicolons and escaped quotes survive.
	if string(rules[3].Content) != "PAYLOAD;WITH;SEMI" || rules[3].Msg != `quoted "semi"` {
		t.Errorf("rule 3 = %+v", rules[3])
	}
}

func TestParseIDSRuleErrors(t *testing.T) {
	bad := []string{
		`alert tcp any any any any (content:"x"; sid:1;)`,       // no ->
		`frobnicate tcp any any -> any any (content:"x";)`,      // action
		`alert icmp any any -> any any (content:"x";)`,          // proto
		`alert tcp 999.1.1.1 any -> any any (content:"x";)`,     // addr
		`alert tcp any 99999 -> any any (content:"x";)`,         // port
		`alert tcp any any -> any any (msg:"no content";)`,      // content missing
		`alert tcp any any -> any any (content:unquoted;)`,      // quoting
		`alert tcp any any -> any any (zzz:"x"; content:"y";)`,  // option
		`alert tcp any any -> any any (content:"x"; sid:abc;)`,  // sid
		`alert tcp any any -> any any content:"x"`,              // no parens
		`alert tcp any any -> any any (content:"x"; msg:nope;)`, // msg quoting
	}
	for _, line := range bad {
		if _, err := parseRules(line); err == nil {
			t.Errorf("accepted %q", line)
		}
	}
}

func TestRuleIDSVerdicts(t *testing.T) {
	rules, err := parseRules(sampleRules)
	if err != nil {
		t.Fatal(err)
	}
	ids := NewRuleIDS(rules)

	// Alert-only rule: pass but record.
	p := tcpPacket("10.1.1.1", "10.2.2.2", 1234, 80, []byte("GET /etc/passwd HTTP/1.0"))
	p.Meta.PID = 5
	if v := ids.Process(p); v != Pass {
		t.Errorf("alert rule verdict = %v", v)
	}
	if len(ids.Alerts()) != 1 || ids.Alerts()[0].SID != 1001 || ids.Alerts()[0].PID != 5 {
		t.Errorf("alerts = %+v", ids.Alerts())
	}

	// Drop rule with source constraint: 10/8 source drops.
	evil := tcpPacket("10.9.9.9", "10.2.2.2", 1, 2, []byte("xx EXPLOIT xx"))
	if v := ids.Process(evil); v != Drop {
		t.Errorf("drop rule verdict = %v", v)
	}
	// Same content from outside 10/8: header mismatch, no drop.
	outside := tcpPacket("192.168.1.1", "10.2.2.2", 1, 2, []byte("xx EXPLOIT xx"))
	if v := ids.Process(outside); v != Drop && v != Pass {
		t.Fatalf("verdict = %v", v)
	} else if v == Drop {
		t.Error("drop rule fired despite source mismatch")
	}

	// Port-constrained alert rule needs the right dst port.
	wrongPort := tcpPacket("10.1.1.1", "10.2.2.2", 1234, 8080, []byte("/etc/passwd"))
	before := len(ids.Alerts())
	ids.Process(wrongPort)
	if len(ids.Alerts()) != before {
		t.Error("alert fired on wrong port")
	}
	if ids.Scanned() != 4 {
		t.Errorf("scanned = %d", ids.Scanned())
	}
}

func TestRuleIDSMultipleMatches(t *testing.T) {
	rules, _ := parseRules(`
alert tcp any any -> any any (content:"aaa"; msg:"a"; sid:1;)
drop tcp any any -> any any (content:"bbb"; msg:"b"; sid:2;)
`)
	ids := NewRuleIDS(rules)
	// Both contents present: the drop wins and scanning stops at it.
	p := tcpPacket("10.0.0.1", "10.0.0.2", 1, 2, []byte("aaa bbb"))
	if v := ids.Process(p); v != Drop {
		t.Errorf("verdict = %v", v)
	}
	if len(ids.Alerts()) != 2 {
		t.Errorf("alerts = %+v", ids.Alerts())
	}
}

func TestRuleIDSLineNumbersInErrors(t *testing.T) {
	_, err := parseRules("# ok\n\nalert tcp any any -> any any (content:\"x\";)\nbroken line\n")
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Errorf("err = %v, want line 4", err)
	}
}
