package nf

import (
	"fmt"
	"sync"
	"testing"

	"nfp/internal/nfa"
	"nfp/internal/packet"
)

// TestL3ForwarderSharedFIB holds the forwarders to one FIB per route
// count: instances built on many goroutines at once, for the same and
// for different counts, share their count's table and look up in it
// concurrently while each keeps its own counters; a restarted instance
// from the registry reuses the table, and building one after the first
// costs no more than the instance itself.
func TestL3ForwarderSharedFIB(t *testing.T) {
	counts := []int{DefaultRouteCount, 7, 300}
	const workers = 8
	fwds := make([][workers]*L3Forwarder, len(counts))
	var wg sync.WaitGroup
	for ci, n := range counts {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(ci, w, n int) {
				defer wg.Done()
				f, err := NewL3Forwarder(n)
				if err != nil {
					t.Error(err)
					return
				}
				// Instance w sees w+1 bursts: its counters must hold
				// exactly those.
				for b := 0; b <= w; b++ {
					pkts := make([]*packet.Packet, 16)
					for i := range pkts {
						pkts[i] = tcpPacket("10.0.0.1", fmt.Sprintf("10.100.%d.%d", w, i+1), 1000, 80, nil)
					}
					pkts[15].Invalidate()
					pkts[15].SetLen(6) // unparseable: a miss, not a lookup
					f.ProcessBatch(pkts, make([]Verdict, len(pkts)))
				}
				fwds[ci][w] = f
			}(ci, w, n)
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for ci, n := range counts {
		shared := fwds[ci][0].table
		for w, f := range fwds[ci] {
			if f.table != shared {
				t.Errorf("n=%d: instance %d built its own table", n, w)
			}
			if want := uint64(15 * (w + 1)); f.lookups != want || f.misses != uint64(w+1) {
				t.Errorf("n=%d instance %d: lookups/misses = %d/%d, want %d/%d", n, w, f.lookups, f.misses, want, w+1)
			}
		}
		if ci > 0 && shared == fwds[ci-1][0].table {
			t.Errorf("route counts %d and %d share a table", counts[ci-1], n)
		}
	}

	r := NewRegistry()
	for i := 0; i < 2; i++ {
		x, err := r.New(nfa.NFL3Fwd)
		if err != nil {
			t.Fatal(err)
		}
		if x.(*L3Forwarder).table != fwds[0][0].table {
			t.Errorf("registry instance %d built its own table", i)
		}
	}

	if a := testing.AllocsPerRun(100, func() {
		if _, err := NewL3Forwarder(DefaultRouteCount); err != nil {
			t.Fatal(err)
		}
	}); a > 1 {
		t.Errorf("NewL3Forwarder after the first: %.1f allocs, want <= 1", a)
	}
}
