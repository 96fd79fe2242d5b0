package dataplane

import (
	"math/rand"
	"strings"
	"testing"
)

// atOracleKey is the Accumulating Table key as a map would hold it.
type atOracleKey struct {
	pr   *planRuntime
	join int32
	pid  uint64
}

// atHarness drives an atTable and a map oracle in lock step.
type atHarness struct {
	t      *testing.T
	tab    *atTable
	oracle map[atOracleKey][]int64 // the cursors of the tails received so far
	keys   []atOracleKey           // the live keys, for picking one
	clock  int64
	peak   int // the most tails ever waiting at once
}

func newATHarness(t *testing.T, bound int) *atHarness {
	return &atHarness{t: t, tab: newATTable(bound), oracle: map[atOracleKey][]int64{}}
}

// tail delivers one tail of k, as merger.accept does for a sampled
// packet: find or claim the entry, count the tail, note its cursor.
func (h *atHarness) tail(k atOracleKey) {
	i, fresh := h.tab.at(k.pr, k.join, k.pid)
	if _, live := h.oracle[k]; fresh == live {
		h.t.Fatalf("key %v: fresh=%v but the oracle has live=%v", k, fresh, live)
	}
	if fresh {
		h.keys = append(h.keys, k)
	}
	e := &h.tab.slots[i]
	e.count++
	h.clock++
	h.tab.noteTail(e, uint8(h.clock), h.clock)
	h.oracle[k] = append(h.oracle[k], h.clock)
	if int(e.count) != len(h.oracle[k]) {
		h.t.Fatalf("key %v: %d tails in the table, %d in the oracle", k, e.count, len(h.oracle[k]))
	}
	waiting := 0
	for _, cursors := range h.oracle {
		waiting += len(cursors)
	}
	h.peak = max(h.peak, waiting)
}

// complete removes the n-th live key and then looks every other live key
// up: a backward shift that lost or duplicated an entry shows at once.
func (h *atHarness) complete(n int) {
	k := h.keys[n]
	h.keys[n] = h.keys[len(h.keys)-1]
	h.keys = h.keys[:len(h.keys)-1]
	i, fresh := h.tab.at(k.pr, k.join, k.pid)
	if fresh {
		h.t.Fatalf("key %v vanished before its completion", k)
	}
	h.tab.dropTails(&h.tab.slots[i])
	h.tab.remove(i)
	delete(h.oracle, k)
	h.check()
}

func (h *atHarness) check() {
	if h.tab.live != len(h.oracle) {
		h.t.Fatalf("table holds %d entries, oracle %d", h.tab.live, len(h.oracle))
	}
	for k, want := range h.oracle {
		i, fresh := h.tab.at(k.pr, k.join, k.pid)
		if fresh {
			h.t.Fatalf("live key %v not found after a delete (claimed slot %d instead)", k, i)
		}
		e := &h.tab.slots[i]
		if int(e.count) != len(want) {
			h.t.Fatalf("key %v: count %d, want %d", k, e.count, len(want))
		}
		// The entry's tails, in arrival order, wherever the shifts moved it.
		n := e.firstTail
		for _, cursor := range want {
			if n == 0 || h.tab.tails[n-1].cursor != cursor || h.tab.tails[n-1].ver != uint8(cursor) {
				h.t.Fatalf("key %v: tail list does not read %v", k, want)
			}
			n = h.tab.tails[n-1].next
		}
		if n != 0 {
			h.t.Fatalf("key %v: tail list runs past its %d tails", k, len(want))
		}
	}
	if len(h.tab.tails) > h.peak {
		h.t.Fatalf("%d tail cursors kept, %d ever waited at once: freed ones are not reused", len(h.tab.tails), h.peak)
	}
	occupied := 0
	for i := range h.tab.slots {
		if h.tab.slots[i].pr != nil {
			occupied++
		}
	}
	if occupied != len(h.oracle) {
		h.t.Fatalf("%d slots occupied, %d keys live", occupied, len(h.oracle))
	}
}

// collidingPIDs returns n PIDs of join whose probes all start within
// width slots of home (the array's last slots, when home is -1: their
// cluster wraps the end).
func collidingPIDs(tab *atTable, join int32, home, width, n int) []uint64 {
	if home < 0 {
		home = len(tab.slots) - width/2
	}
	var pids []uint64
	for pid := uint64(1); len(pids) < n; pid++ {
		if d := (tab.home(join, pid) - home) & (len(tab.slots) - 1); d < width {
			pids = append(pids, pid)
		}
	}
	return pids
}

// atScript plays a byte string against the harness: each byte either
// delivers a tail (to a fresh key while there is room, or to a live one)
// or completes a live key. Keys span two generation runtimes and two
// joins, and their PIDs are drawn from a colliding set.
func atScript(h *atHarness, prs [2]*planRuntime, pids []uint64, script []byte) {
	next := 0
	for _, b := range script {
		switch {
		case b&3 != 0 && len(h.keys) < h.tab.bound && next < len(pids):
			// The same PID on both runtimes and both joins: four keys, one
			// home per join.
			k := atOracleKey{pr: prs[next&1], join: int32(next >> 1 & 1), pid: pids[next>>2]}
			next++
			h.tail(k)
		case b&3 == 1 && len(h.keys) > 0:
			h.tail(h.keys[int(b>>2)%len(h.keys)])
		case len(h.keys) > 0:
			h.complete(int(b>>2) % len(h.keys))
		}
	}
	for len(h.keys) > 0 {
		h.complete(len(h.keys) - 1)
	}
	free := 0
	for n := h.tab.freeTail; n != 0; n = h.tab.tails[n-1].next {
		free++
	}
	if free != len(h.tab.tails) {
		h.t.Fatalf("%d of %d tail cursors back on the free list of an empty table", free, len(h.tab.tails))
	}
}

// TestAccumulatingTableMatchesMap is the table's property test against a
// map: random interleavings of first tail, later tail and completion,
// over two generation runtimes and two joins, with PIDs that collide —
// in the middle of the array and across its end — and occupancy driven
// to the bound; every delete is followed by a lookup of every live key,
// and of the tails its entry lists.
func TestAccumulatingTableMatchesMap(t *testing.T) {
	prs := [2]*planRuntime{{}, {}}
	for _, tc := range []struct {
		name        string
		home, width int
	}{
		{"spread", 0, 1 << 30},
		{"one cluster", 17, 4},
		{"cluster across the end", -1, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(19))
			for round := 0; round < 20; round++ {
				const bound = 32
				h := newATHarness(t, bound)
				pids := collidingPIDs(h.tab, 0, tc.home, tc.width, 3*bound)
				script := make([]byte, 600)
				rng.Read(script)
				if round%2 == 0 {
					// Fill to the bound first, so deletes run in a table as
					// full as admission lets it get.
					for i := range script[:bound] {
						script[i] |= 2
					}
				}
				atScript(h, prs, pids, script)
				if h.tab.live != 0 {
					t.Fatalf("%d entries left", h.tab.live)
				}
			}
		})
	}
}

// TestAccumulatingTableOverfillPanics: the table takes exactly the
// entries admission can let in; one more is a bug in that arithmetic and
// says so, naming the bound, rather than probe a full array forever.
func TestAccumulatingTableOverfillPanics(t *testing.T) {
	const bound = 8
	tab, pr := newATTable(bound), &planRuntime{}
	if len(tab.slots) != 2*bound {
		t.Fatalf("%d slots for a bound of %d entries, want twice", len(tab.slots), bound)
	}
	for pid := uint64(1); pid <= bound; pid++ {
		if _, fresh := tab.at(pr, 0, pid); !fresh {
			t.Fatalf("pid %d already present", pid)
		}
	}
	if _, fresh := tab.at(pr, 0, 1); fresh || tab.live != bound {
		t.Fatalf("a lookup in a table at its bound inserted (live=%d)", tab.live)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "accumulating table full: 8 entries") || !strings.Contains(msg, "admission budget") {
			t.Errorf("overfill panic = %q, want the bound and the budget named", msg)
		}
	}()
	tab.at(pr, 0, bound+1)
	t.Error("the ninth entry went in")
}

// FuzzAccumulatingTable plays arbitrary tail/completion scripts over a
// small table and a colliding PID set against the map oracle.
func FuzzAccumulatingTable(f *testing.F) {
	f.Add([]byte{3, 3, 3, 3, 0, 0, 0, 0}, uint8(0))
	f.Add([]byte{2, 6, 10, 1, 5, 9, 0, 4, 8, 3, 7, 0}, uint8(3))
	f.Add([]byte("\x03\x07\x0b\x0f\x13\x17\x1b\x1f\x00\x04\x03\x08\x03\x0c"), uint8(255))
	prs := [2]*planRuntime{{}, {}}
	f.Fuzz(func(t *testing.T, script []byte, home uint8) {
		h := newATHarness(t, 8)
		atScript(h, prs, collidingPIDs(h.tab, 0, int(home)%len(h.tab.slots), 3, 16), script)
	})
}
