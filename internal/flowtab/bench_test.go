package flowtab

import (
	"math/rand"
	"testing"

	"nfp/internal/packet"
)

// The table's own meter. The value is the monitor's (two counters), so
// a slot is the 32 bytes DESIGN.md §15 describes.
type benchVal [2]uint64

const manyFlows = 1 << 18 // stateful_manyflow's population

func benchKeys(n int) []packet.FlowKey {
	keys := make([]packet.FlowKey, n)
	for i := range keys {
		keys[i] = testKey(i)
	}
	rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

func filled(keys []packet.FlowKey) *Table[benchVal] {
	tab := New[benchVal](Ceiling, Evict)
	for _, k := range keys {
		tab.Insert(k)
	}
	return tab
}

// noAllocs fails the benchmark if op allocates.
func noAllocs(b *testing.B, op func()) {
	b.Helper()
	if a := testing.AllocsPerRun(1000, op); a != 0 {
		b.Fatalf("%v allocs/op, want 0", a)
	}
}

// BenchmarkFlowTableHit: 1024 flows, slab resident in L1/L2.
func BenchmarkFlowTableHit(b *testing.B) {
	keys := benchKeys(1024)
	tab := filled(keys)
	i := 0
	op := func() {
		tab.Get(keys[i&1023])[0]++
		i++
	}
	noAllocs(b, op)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		op()
	}
}

// BenchmarkFlowTableColdHit: 262144 flows visited in shuffled order — an
// 16 MB slab, so nearly every lookup misses the cache, once.
func BenchmarkFlowTableColdHit(b *testing.B) {
	keys := benchKeys(manyFlows)
	tab := filled(keys)
	rand.New(rand.NewSource(2)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	i := 0
	op := func() {
		tab.Get(keys[i&(manyFlows-1)])[0]++
		i++
	}
	noAllocs(b, op)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		op()
	}
}

// BenchmarkFlowTableInsert: 262144 new flows into an empty table, the
// nine doublings from 1024 slots included (the only allocations).
func BenchmarkFlowTableInsert(b *testing.B) {
	keys := benchKeys(manyFlows)
	b.ReportAllocs()
	b.ResetTimer()
	var tab *Table[benchVal]
	for n := 0; n < b.N; n++ {
		if n&(manyFlows-1) == 0 {
			tab = New[benchVal](Ceiling, Evict)
		}
		tab.Insert(keys[n&(manyFlows-1)])
	}
}

// BenchmarkFlowTableEvictAtCeiling: every insert displaces a flow from a
// table holding Ceiling of them (a 64 MB slab).
func BenchmarkFlowTableEvictAtCeiling(b *testing.B) {
	tab := New[benchVal](Ceiling, Evict)
	next := 0
	for ; next < Ceiling; next++ {
		tab.Insert(testKey(next))
	}
	op := func() {
		tab.Insert(testKey(next))
		next++
	}
	noAllocs(b, op)
	if st := tab.Stats(); st.Entries != Ceiling || st.Evictions == 0 {
		b.Fatalf("not at the ceiling: %+v", st)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		op()
	}
}
