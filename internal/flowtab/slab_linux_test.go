//go:build linux && !race

package flowtab

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"nfp/internal/offheap"
)

// grown returns a monitor-shaped table that took flows new flows and
// finished the doubling they started.
func grown(flows int) *Table[[2]uint64] {
	tab := New[[2]uint64](Ceiling, Evict)
	for i := 0; i < flows || tab.old != nil; i++ {
		tab.Insert(testKey(i))
	}
	return tab
}

// TestBigSlabsAreMapped: from offheap.HugePage bytes up a slab is a
// huge-page-aligned mapping, and the old slab of a doubling is
// unmapped the moment its last slot has moved on, not at a collection.
func TestBigSlabsAreMapped(t *testing.T) {
	tab := New[[2]uint64](Ceiling, Evict)
	for i := 0; tab.mem == nil; i++ {
		tab.Insert(testKey(i))
	}
	if size := len(tab.slots) * int(unsafe.Sizeof(tab.slots[0])); size != offheap.HugePage {
		t.Fatalf("first mapped slab is %d bytes, want %d", size, offheap.HugePage)
	}
	if a := uintptr(unsafe.Pointer(&tab.slots[0])); a%offheap.HugePage != 0 {
		t.Fatalf("mapped slab at %#x, not huge-page aligned", a)
	}
	first := tab.mem
	for i := 1 << 24; tab.oldMem != first; i++ {
		tab.Insert(testKey(i))
	}
	for i := 1 << 25; tab.old != nil; i++ {
		tab.Insert(testKey(i))
	}
	if first.Bytes() != nil {
		t.Fatal("the old slab outlived its copy")
	}
}

// TestDroppedTablesUnmapTheirSlabs builds and drops 32 tables grown to
// an 8 MB mapped slab, the monitor's at 131 072 flows. Their mappings
// must go with them: the process's virtual size, which counts a
// mapping whether or not it was touched, stays within a few tables'
// worth of where it started, once what the runtime's own threads
// reserved meanwhile is taken out — keeping them would grow it by
// 256 MB.
func TestDroppedTablesUnmapTheirSlabs(t *testing.T) {
	const tables, flows = 32, 1 << 17
	build := func() {
		if tab := grown(flows); tab.mem == nil {
			t.Fatal("an 8 MB slab is heap memory, want a mapping")
		}
		runtime.GC()
	}
	build()
	vm0, threads0 := procSize(t)
	for i := 0; i < tables; i++ {
		build()
	}
	runtime.GC()
	runtime.GC()
	vm1, threads1 := procSize(t)
	slack := (threads1 - threads0 + 1) * 72 << 20
	grew := vm1 - vm0
	t.Logf("virtual size grew %d KB over %d dropped tables; %d threads started", grew>>10, tables, threads1-threads0)
	if limit := 4*8<<20 + slack; grew > limit {
		t.Fatalf("virtual size grew %d MB over %d dropped tables, want at most %d MB", grew>>20, tables, limit>>20)
	}
}

// procSize reads the process's virtual size in bytes (the first field
// of /proc/self/statm, in pages) and its thread count.
func procSize(t *testing.T) (vm, threads int) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		t.Fatal(err)
	}
	pages, err := strconv.Atoi(strings.Fields(string(b))[0])
	if err != nil {
		t.Fatalf("statm: %v", err)
	}
	if b, err = os.ReadFile("/proc/self/status"); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "Threads:" {
			if threads, err = strconv.Atoi(f[1]); err != nil {
				t.Fatalf("status: %v", err)
			}
			return pages * os.Getpagesize(), threads
		}
	}
	t.Fatal("status: no Threads line")
	return 0, 0
}
