//go:build race

package mempool

import "testing"

// TestRaceSlabIsHeap: under the race detector the slab is Go heap, the
// only memory whose races it reports.
func TestRaceSlabIsHeap(t *testing.T) {
	if mapSlab {
		t.Fatal("race build maps the frame slab")
	}
	if p := New(4, 2048); p.slab.mapped {
		t.Fatal("race build's pool got a mapped slab")
	}
}
