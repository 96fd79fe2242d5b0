package offheap

import "testing"

// TestMapWhereEnabled: a build that maps hands out zeroed, writable
// slabs of the asked size, huge or not; one that does not hands out
// none, and its callers take the heap.
func TestMapWhereEnabled(t *testing.T) {
	for _, huge := range []bool{false, true} {
		s := Map(3*HugePage/2, huge)
		if !enabled {
			if s != nil {
				t.Fatalf("huge=%v: a build that does not map returned a slab", huge)
			}
			continue
		}
		if s == nil {
			t.Fatalf("huge=%v: no slab", huge)
		}
		mem := s.Bytes()
		if len(mem) != 3*HugePage/2 {
			t.Fatalf("huge=%v: %d bytes, want %d", huge, len(mem), 3*HugePage/2)
		}
		for i := range mem {
			if mem[i] != 0 {
				t.Fatalf("huge=%v: byte %d = %#x, want 0", huge, i, mem[i])
			}
			mem[i] = 0xa5
		}
		s.Free()
		if s.Bytes() != nil {
			t.Fatalf("huge=%v: freed slab still hands out its bytes", huge)
		}
	}
}
