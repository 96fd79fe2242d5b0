//go:build race

package mempool

import "testing"

// TestRaceSlabIsHeap: under the race detector the slab is Go heap, the
// only memory whose races it reports.
func TestRaceSlabIsHeap(t *testing.T) {
	if p := New(4, 2048); p.frames != nil {
		t.Fatal("race build's pool got a mapped slab")
	}
}
