package nf

import "testing"

// TestAlertLogsBounded: a flood of 10× the log's capacity in hits keeps
// exactly the newest alertLogCap alerts, oldest first, while the hit
// counter sees them all — for the signature IDS and the rule IDS.
func TestAlertLogsBounded(t *testing.T) {
	const floods = 10 * alertLogCap
	rules, err := parseRules(`alert tcp any any -> any any (content:"EVIL"; sid:7;)`)
	if err != nil {
		t.Fatal(err)
	}
	ids := NewIDSFromSignatures([][]byte{[]byte("EVIL")}, false)
	rids := NewRuleIDS(rules)
	p := tcpPacket("10.0.0.1", "10.0.0.2", 1000, 80, []byte("an EVIL payload"))
	for i := 0; i < floods; i++ {
		p.Meta.PID = uint64(i)
		ids.Process(p)
		rids.Process(p)
	}
	if ids.Hits() != floods || rids.Hits() != floods {
		t.Fatalf("hits = %d and %d, want %d", ids.Hits(), rids.Hits(), floods)
	}
	alerts, ralerts := ids.Alerts(), rids.Alerts()
	if len(alerts) != alertLogCap || len(ralerts) != alertLogCap {
		t.Fatalf("retained %d and %d alerts, want %d", len(alerts), len(ralerts), alertLogCap)
	}
	for i := range alerts {
		want := uint64(floods - alertLogCap + i)
		if alerts[i].PID != want || ralerts[i].PID != want || ralerts[i].SID != 7 {
			t.Fatalf("alert %d: PIDs %d and %d, want %d, oldest first", i, alerts[i].PID, ralerts[i].PID, want)
		}
	}
}
