package flightrec

import (
	"fmt"
	"sort"
	"strings"

	"nfp/internal/telemetry"
)

// MetricDrops is the metric the ledger reconciles. It doubles as both
// the unlabeled grand-total counter (registered by the server) and the
// per-cause family (cause/nf/shard/gen labels) — the registry keys
// series by name+labels, so they coexist.
const MetricDrops = "nfp_drops_total"

// Ledger is the conservation audit view of a registry snapshot: every
// drop the dataplane counted, broken down by cause, against the
// unlabeled totals.
type Ledger struct {
	// ByCause sums the cause-labeled nfp_drops_total family per cause
	// name (across nf/shard/gen).
	ByCause map[string]uint64 `json:"by_cause"`
	// Terminal is the sum over the cause series — packets that were
	// injected and died inside.
	Terminal uint64 `json:"terminal"`
	// TotalDrops is the unlabeled nfp_drops_total counter.
	TotalDrops uint64 `json:"total_drops"`
}

// ReadLedger extracts the drop ledger from a registry snapshot.
func ReadLedger(snap telemetry.Snapshot) Ledger {
	l := Ledger{ByCause: make(map[string]uint64)}
	for _, c := range snap.Counters {
		if c.Name != MetricDrops {
			continue
		}
		cause, ok := c.Labels["cause"]
		if !ok {
			l.TotalDrops += c.Value
			continue
		}
		l.ByCause[cause] += c.Value
		l.Terminal += c.Value
	}
	return l
}

// Verify enforces the conservation audit: no anonymous packet death.
//   - the unknown sentinel cause never fired (every drop site stamps
//     a real cause),
//   - every cause name is inside the closed taxonomy,
//   - the sum over terminal causes equals the unlabeled drop total.
func (l Ledger) Verify() error {
	var errs []string
	if n := l.ByCause[CauseUnknown.String()]; n != 0 {
		errs = append(errs, fmt.Sprintf("%d drops with unknown cause (unthreaded drop site)", n))
	}
	for cause := range l.ByCause {
		if _, ok := ParseCause(cause); !ok {
			errs = append(errs, fmt.Sprintf("cause %q outside the closed taxonomy", cause))
		}
	}
	if l.Terminal != l.TotalDrops {
		errs = append(errs, fmt.Sprintf("sum over terminal causes %d != total drops %d (diff %+d): %s",
			l.Terminal, l.TotalDrops, int64(l.Terminal)-int64(l.TotalDrops), l.causeList()))
	}
	if errs != nil {
		return fmt.Errorf("flightrec ledger: %s", strings.Join(errs, "; "))
	}
	return nil
}

// causeList renders the by-cause breakdown deterministically for
// error messages and bundles.
func (l Ledger) causeList() string {
	keys := make([]string, 0, len(l.ByCause))
	for k := range l.ByCause {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, l.ByCause[k]))
	}
	if len(parts) == 0 {
		return "(no cause series)"
	}
	return strings.Join(parts, " ")
}
