package main

import (
	"strings"
	"testing"

	"nfp/internal/telemetry/flightrec"
)

// TestRunIncidentProducesBundle: the -chain repro path must end in a
// parseable bundle whose reason and event ring carry the injected
// panic.
func TestRunIncidentProducesBundle(t *testing.T) {
	b, err := runIncident(&source{chain: "monitor,lb", packets: 20000, seed: 1}, 500)
	if err != nil {
		t.Fatal(err)
	}
	if b.Schema != flightrec.BundleSchema {
		t.Fatalf("bundle schema = %d", b.Schema)
	}
	if !strings.HasPrefix(b.Reason, "panic:") {
		t.Fatalf("bundle reason = %q, want panic:*", b.Reason)
	}
	sawPanic := false
	for _, e := range b.Events {
		if e.Kind == "panic" {
			sawPanic = true
		}
	}
	if !sawPanic {
		t.Fatalf("bundle events lack the panic (kinds: %v)", eventKinds(b.Events))
	}
	if len(b.Build) == 0 {
		t.Fatal("bundle missing build info")
	}
	// Rendering must not panic on a real bundle.
	printBundle(*b, 16)
}

// TestRunIncidentBadChain: an unknown NF fails compilation, not the
// spool walk.
func TestRunIncidentBadChain(t *testing.T) {
	if _, err := runIncident(&source{chain: "no-such-nf", packets: 10, seed: 1}, 1); err == nil {
		t.Fatal("bogus chain must fail")
	}
}

func eventKinds(events []flightrec.Event) []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range events {
		if !seen[e.Kind] {
			seen[e.Kind] = true
			out = append(out, e.Kind)
		}
	}
	return out
}
