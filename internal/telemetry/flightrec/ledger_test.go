package flightrec

import (
	"strings"
	"testing"

	"nfp/internal/telemetry"
)

// ctr builds one counter series for hand-assembled snapshots.
func ctr(name string, value uint64, labels map[string]string) telemetry.CounterSnap {
	return telemetry.CounterSnap{Name: name, Labels: labels, Value: value}
}

func causeLabels(cause string) map[string]string {
	return map[string]string{"cause": cause, "nf": "monitor", "shard": "0", "gen": "1"}
}

// TestLedgerClean: a balanced snapshot — per-cause sum equals the
// unlabeled total — verifies.
func TestLedgerClean(t *testing.T) {
	snap := telemetry.Snapshot{Counters: []telemetry.CounterSnap{
		ctr(MetricDrops, 5, nil), // unlabeled grand total
		ctr(MetricDrops, 3, causeLabels("panic")),
		ctr(MetricDrops, 2, causeLabels("nf_verdict")),
	}}
	l := ReadLedger(snap)
	if l.Terminal != 5 || l.TotalDrops != 5 {
		t.Fatalf("ledger = %+v", l)
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("clean ledger failed verify: %v", err)
	}
}

// TestLedgerUnknownTripwire: any count on the unknown sentinel fails
// the audit — an unthreaded drop site must not pass.
func TestLedgerUnknownTripwire(t *testing.T) {
	snap := telemetry.Snapshot{Counters: []telemetry.CounterSnap{
		ctr(MetricDrops, 1, nil),
		ctr(MetricDrops, 1, causeLabels("unknown")),
	}}
	err := ReadLedger(snap).Verify()
	if err == nil || !strings.Contains(err.Error(), "unknown cause") {
		t.Fatalf("unknown sentinel not caught: %v", err)
	}
}

// TestLedgerSumMismatch: a cause sum diverging from the unlabeled
// total is anonymous packet death and must fail.
func TestLedgerSumMismatch(t *testing.T) {
	snap := telemetry.Snapshot{Counters: []telemetry.CounterSnap{
		ctr(MetricDrops, 10, nil),
		ctr(MetricDrops, 7, causeLabels("panic")),
	}}
	err := ReadLedger(snap).Verify()
	if err == nil || !strings.Contains(err.Error(), "7 != total drops 10") {
		t.Fatalf("sum mismatch not caught: %v", err)
	}
	// The error carries the breakdown for debugging.
	if !strings.Contains(err.Error(), "panic=7") {
		t.Fatalf("error lacks cause breakdown: %v", err)
	}
}

// TestLedgerForeignCause: a cause label outside the closed taxonomy
// fails — the set is closed by design.
func TestLedgerForeignCause(t *testing.T) {
	snap := telemetry.Snapshot{Counters: []telemetry.CounterSnap{
		ctr(MetricDrops, 1, nil),
		ctr(MetricDrops, 1, causeLabels("cosmic_ray")),
	}}
	err := ReadLedger(snap).Verify()
	if err == nil || !strings.Contains(err.Error(), "outside the closed taxonomy") {
		t.Fatalf("foreign cause not caught: %v", err)
	}
}

// TestLedgerEmpty: a fresh registry (no drops anywhere) is balanced.
func TestLedgerEmpty(t *testing.T) {
	if err := ReadLedger(telemetry.Snapshot{}).Verify(); err != nil {
		t.Fatalf("empty ledger failed verify: %v", err)
	}
}

// TestCauseTaxonomy pins the closed set: names round-trip through
// ParseCause and foreign names are rejected.
func TestCauseTaxonomy(t *testing.T) {
	for _, c := range Causes() {
		got, ok := ParseCause(c.String())
		if !ok || got != c {
			t.Fatalf("ParseCause(%q) = %v,%v", c.String(), got, ok)
		}
	}
	if _, ok := ParseCause("bogus"); ok {
		t.Fatal("ParseCause accepted a foreign name")
	}
}
