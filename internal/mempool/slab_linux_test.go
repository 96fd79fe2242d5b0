//go:build linux && !race

package mempool

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestSlabIsMapped: outside race builds a Linux pool's slab is an
// anonymous mapping.
func TestSlabIsMapped(t *testing.T) {
	if New(8, 2048).frames == nil {
		t.Fatal("pool slab is heap memory, want an anonymous mapping")
	}
}

// TestDroppedPoolsUnmapTheirSlabs builds and drops 64 benchmark-sized
// pools (8 MB each). Their mappings must go with them: the process's
// virtual size, which counts a mapping whether or not it was touched,
// stays within a few pools' worth of where it started, once what the
// runtime's own threads reserved meanwhile is taken out — keeping the
// mappings would grow it by all 64.
func TestDroppedPoolsUnmapTheirSlabs(t *testing.T) {
	const pools, n, bufSize = 64, 4096, 2048
	build := func() {
		p := New(n, bufSize)
		if pkt := p.Get(); pkt != nil {
			pkt.Buffer()[0] = 1 // touch a page, as traffic would
			pkt.Free()
		}
		runtime.GC()
	}
	build() // the heap reserves what one pool's descriptors need
	vm0, threads0 := procSize(t)
	for i := 0; i < pools; i++ {
		build()
	}
	runtime.GC()
	runtime.GC()
	vm1, threads1 := procSize(t)
	// A thread started meanwhile (an unmap is a syscall the runtime may
	// hand its P away from) reserves an 8 MB stack, and in a cgo binary
	// the thread starting it may reserve a 64 MB malloc arena.
	slack := (threads1 - threads0 + 1) * 72 << 20
	grew := vm1 - vm0
	t.Logf("virtual size grew %d KB over %d dropped pools; %d threads started", grew>>10, pools, threads1-threads0)
	if limit := 4*n*bufSize + slack; grew > limit {
		t.Fatalf("virtual size grew %d MB over %d dropped pools, want at most %d MB",
			grew>>20, pools, limit>>20)
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
