package equivalence

import (
	"fmt"

	"nfp/internal/dataplane"
	"nfp/internal/telemetry/flightrec"
)

// auditConservation is the "no anonymous packet death" law, asserted
// after every drained Execute replay: every injected packet surfaced
// exactly once as an output or a drop, every terminal drop carries a
// taxonomy cause, and the per-cause nfp_drops_total series sum exactly
// — not approximately — to the unlabeled grand total. A nonzero
// cause=unknown row means some future drop site forgot to thread
// provenance; a sum mismatch means a drop was double-counted or lost.
func auditConservation(srv *dataplane.Server, st dataplane.Stats) error {
	if st.Injected != st.Outputs+st.Drops {
		return fmt.Errorf("conservation: injected %d != outputs %d + drops %d",
			st.Injected, st.Outputs, st.Drops)
	}
	l := flightrec.ReadLedger(srv.Telemetry().Snapshot())
	if err := l.Verify(); err != nil {
		return fmt.Errorf("drop ledger: %w", err)
	}
	if l.TotalDrops != st.Drops {
		return fmt.Errorf("drop ledger: nfp_drops_total %d != Stats.Drops %d", l.TotalDrops, st.Drops)
	}
	return nil
}
