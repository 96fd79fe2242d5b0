package ring

import (
	"runtime"
	"time"
)

// Waiter paces a retry loop on a full (or empty) ring: a bounded burst
// of Gosched yields — cheap, keeps the cache warm, resolves the common
// transient-full case — followed by exponentially growing sleeps once
// the spin budget is exhausted. A producer stuck behind a stalled
// consumer therefore parks instead of pegging a core, while the
// fast path (ring drains within a few yields) never sleeps.
//
// A Waiter is single-goroutine scratch state; create one per retry
// episode (the zero value with a SpinLimit is ready to use) and Reset
// it whenever the loop makes progress.
type Waiter struct {
	// SpinLimit is how many Gosched yields to burn before parking.
	// Zero parks immediately on the first Wait.
	SpinLimit int

	spins  int
	park   time.Duration
	yields uint64
	parks  uint64
}

// Park growth bounds: the first park is short enough not to hurt a
// momentarily slow consumer; the cap bounds wake-up latency after a
// long stall (and how long Stop-drain invariants take to observe).
const (
	minPark = 5 * time.Microsecond
	maxPark = time.Millisecond
)

// Wait blocks the caller one pacing step and reports whether it parked
// (slept) rather than yielded.
func (w *Waiter) Wait() bool {
	if w.spins < w.SpinLimit {
		w.spins++
		w.yields++
		runtime.Gosched()
		return false
	}
	if w.park == 0 {
		w.park = minPark
	} else if w.park < maxPark {
		w.park *= 2
		if w.park > maxPark {
			w.park = maxPark
		}
	}
	w.parks++
	time.Sleep(w.park)
	return true
}

// Reset rearms the spin budget and park backoff after progress.
func (w *Waiter) Reset() { w.spins, w.park = 0, 0 }

// Stats returns the cumulative (yields, parks) this waiter performed;
// Reset does not clear them.
func (w *Waiter) Stats() (yields, parks uint64) { return w.yields, w.parks }
