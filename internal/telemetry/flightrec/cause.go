// Package flightrec is the dataplane's black box: drop provenance (a
// closed taxonomy of drop causes behind nfp_drops_total{cause,...}),
// an always-on per-shard event ring recording drops, panics, restarts,
// backpressure engagements, health transitions and reload lifecycle
// edges — repeats of the per-packet kinds coalesced into one slot —
// and anomaly-triggered incident snapshots spooled to disk for
// post-mortem debugging. The conservation ledger (ledger.go) closes the
// loop: the sum over drop causes must equal total drops — no anonymous
// packet death anywhere in the dataplane.
package flightrec

import "fmt"

// Cause classifies why a packet died. The taxonomy is closed: every
// drop site in the dataplane must stamp one of the named causes, and
// CauseUnknown (the zero value) is a tripwire — the conservation
// ledger fails if any drop is ever accounted against it, so a future
// drop site that forgets to thread provenance fails the audit instead
// of silently vanishing into an anonymous count.
type Cause uint8

const (
	// CauseUnknown is the zero-value sentinel; it must never appear in
	// a live counter (the ledger audit asserts its series stays 0).
	CauseUnknown Cause = iota
	// CauseNFVerdict is an NF returning VerdictDrop for the packet.
	CauseNFVerdict
	// CausePanic is the in-flight burst discarded when an NF panics.
	CausePanic
	// CauseUnhealthyDrain is a packet drained from an unhealthy NF's
	// ring while the supervisor waits to restart it.
	CauseUnhealthyDrain
	// CauseReloadDrain is a packet drained from a sealed (superseded)
	// generation's rings after a config swap.
	CauseReloadDrain
	// CauseStopDrain is reserved for packets drained at Stop. Stop
	// waits for conservation before tearing runtimes down, so this
	// series is structurally zero today; the taxonomy keeps the name
	// so a future early-stop path has a home (and a test pins it 0).
	CauseStopDrain

	// NumCauses sizes dense per-cause tables.
	NumCauses = int(CauseStopDrain) + 1
)

var causeNames = [NumCauses]string{
	"unknown",
	"nf_verdict",
	"panic",
	"unhealthy_drain",
	"reload_drain",
	"stop_drain",
}

func (c Cause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return fmt.Sprintf("cause(%d)", uint8(c))
}

// ParseCause maps a taxonomy name back to its Cause; ok is false for
// names outside the closed set.
func ParseCause(s string) (Cause, bool) {
	for i, n := range causeNames {
		if n == s {
			return Cause(i), true
		}
	}
	return CauseUnknown, false
}
