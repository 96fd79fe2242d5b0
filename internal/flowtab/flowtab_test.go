package flowtab

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"nfp/internal/packet"
)

// testKey spreads i over every field of the key, so packing and
// unpacking are exercised along with the table.
func testKey(i int) packet.FlowKey {
	u := uint32(i)
	return packet.FlowKey{
		Src:     [4]byte{10, byte(u >> 16), byte(u >> 8), byte(u)},
		Dst:     [4]byte{byte(u * 7), byte(u >> 3), 172, byte(u >> 11)},
		SrcPort: uint16(u * 31),
		DstPort: uint16(u>>4) ^ 0x5555,
		Proto:   uint8(6 + 11*(u&1)),
	}
}

// checker drives a Table and a plain map with the same operations and
// fails on the first disagreement. An eviction removes a flow of the
// table's choosing, which the map learns of lazily: `pending` counts
// evictions whose victim it has not met yet, a flow the map holds and
// the table does not is excused while that count is positive, and
// reconcile settles the account exactly.
type checker struct {
	t       testing.TB
	tab     *Table[uint64]
	oracle  map[packet.FlowKey]uint64
	ceiling int
	policy  Policy
	pending int
	want    Stats
}

func newChecker(t testing.TB, ceiling int, p Policy) *checker {
	return &checker{t: t, tab: New[uint64](ceiling, p), oracle: map[packet.FlowKey]uint64{}, ceiling: ceiling, policy: p}
}

// lost accounts for a flow the table turned out not to hold.
func (c *checker) lost(k packet.FlowKey, op string) {
	c.t.Helper()
	if c.pending == 0 {
		c.t.Fatalf("%s: table lost %+v with no eviction to blame", op, k)
	}
	c.pending--
	delete(c.oracle, k)
}

func (c *checker) insert(k packet.FlowKey, v uint64) {
	c.t.Helper()
	full := c.tab.Len() == c.ceiling
	p, fresh := c.tab.Insert(k)
	old, held := c.oracle[k]
	if held && (fresh || p == nil) {
		c.lost(k, "insert")
		held = false
	}
	switch {
	case held:
		if *p != old {
			c.t.Fatalf("insert: %+v holds %d, want %d", k, *p, old)
		}
	case full && c.policy == Refuse:
		if p != nil || fresh {
			c.t.Fatalf("insert: %+v went into a full refusing table", k)
		}
		c.want.Refusals++
	default:
		if p == nil || !fresh || *p != 0 {
			c.t.Fatalf("insert: new flow %+v: value %v, fresh %v", k, p, fresh)
		}
		if full {
			c.pending++
			c.want.Evictions++
		}
	}
	if p != nil {
		*p = v
		c.oracle[k] = v
	}
	c.check("insert")
}

func (c *checker) get(k packet.FlowKey) {
	c.t.Helper()
	p := c.tab.Get(k)
	want, held := c.oracle[k]
	switch {
	case held && p == nil:
		c.lost(k, "get")
	case held && *p != want:
		c.t.Fatalf("get: %+v holds %d, want %d", k, *p, want)
	case !held && p != nil:
		c.t.Fatalf("get: %+v found with %d, never inserted or deleted", k, *p)
	}
	c.check("get")
}

func (c *checker) delete(k packet.FlowKey) {
	c.t.Helper()
	ok := c.tab.Delete(k)
	_, held := c.oracle[k]
	switch {
	case held && !ok:
		c.lost(k, "delete")
	case !held && ok:
		c.t.Fatalf("delete: removed %+v, which was not there", k)
	}
	delete(c.oracle, k)
	c.check("delete")
}

// check holds the cheap invariants after every operation.
func (c *checker) check(op string) {
	c.t.Helper()
	if got, want := c.tab.Len(), len(c.oracle)-c.pending; got != want {
		c.t.Fatalf("%s: Len %d, want %d (%d held, %d evictions unplaced)", op, got, want, len(c.oracle), c.pending)
	}
	if c.tab.Len() > c.ceiling {
		c.t.Fatalf("%s: %d flows over a ceiling of %d", op, c.tab.Len(), c.ceiling)
	}
	c.want.Entries = uint64(c.tab.Len())
	c.want.Bytes = uint64(len(c.tab.slots)+len(c.tab.old)) * uint64(unsafe.Sizeof(c.tab.slots[0]))
	if got := c.tab.Stats(); got != c.want {
		c.t.Fatalf("%s: Stats %+v, want %+v", op, got, c.want)
	}
}

// reconcile walks the table: every flow in it is the map's, with the
// map's value, once; the map's flows it lacks are exactly the unplaced
// evictions.
func (c *checker) reconcile() {
	c.t.Helper()
	seen := make(map[packet.FlowKey]bool, c.tab.Len())
	c.tab.Range(func(k packet.FlowKey, v *uint64) bool {
		want, held := c.oracle[k]
		if !held || *v != want || seen[k] {
			c.t.Fatalf("reconcile: table holds %+v = %d (map: %d, held %v, seen twice %v)", k, *v, want, held, seen[k])
		}
		seen[k] = true
		return true
	})
	if missing := len(c.oracle) - len(seen); missing != c.pending {
		c.t.Fatalf("reconcile: %d of the map's flows missing, %d evictions unplaced", missing, c.pending)
	}
	for k := range c.oracle {
		if !seen[k] {
			delete(c.oracle, k)
		}
	}
	c.pending = 0
	// No probe may have to cross a hole: every flow sits in its own
	// cluster, reachable from its home without meeting an empty slot —
	// in the new slab, and in the part of the old one not yet copied.
	checkPaths(c.t, c.tab.slots, c.tab.shift, 0, c.tab.hash)
	if c.tab.old != nil {
		checkPaths(c.t, c.tab.old, c.tab.shift+1, c.tab.moved, c.tab.hash)
	}
}

// checkPaths fails if an entry of slab at or past from is cut off from
// its home (the hash's top bits, shifted down by shift) by a hole.
func checkPaths(t testing.TB, slab []slot[uint64], shift uint, from int, hash func(a, b uint64) uint64) {
	t.Helper()
	mask := len(slab) - 1
	for i := from; i < len(slab); i++ {
		s := &slab[i]
		if s.b&slotUsed == 0 {
			continue
		}
		for j := int(hash(s.a, s.b&keyMask) >> shift); j != i; j = (j + 1) & mask {
			if slab[j].b&slotUsed == 0 {
				t.Fatalf("reconcile: slot %d of %d is cut off from its home by a hole at %d", i, len(slab), j)
			}
		}
	}
}

// TestTableMatchesMap is the property test: over a million random
// inserts, lookups and deletes, on tables that never grow, grow once
// and grow six times, with the ceiling inside the first slab (long
// clusters that wrap around its end), on a slab boundary and past
// several, evicting and refusing.
func TestTableMatchesMap(t *testing.T) {
	sizes := []struct{ ceiling, universe, ops int }{
		{64, 200, 40_000},
		{700, 1_500, 60_000},
		{768, 2_000, 60_000}, // exactly the first slab's growth threshold
		{5_000, 9_000, 80_000},
		{1 << 16, 100_000, 120_000},
	}
	for _, policy := range []Policy{Evict, Refuse} {
		for seed := int64(1); seed <= 3; seed++ {
			for _, sz := range sizes {
				name := fmt.Sprintf("policy%d/seed%d/ceiling%d", policy, seed, sz.ceiling)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					c := newChecker(t, sz.ceiling, policy)
					for op := 0; op < sz.ops; op++ {
						k := testKey(rng.Intn(sz.universe))
						switch r := rng.Intn(10); {
						case r < 5:
							c.insert(k, rng.Uint64())
						case r < 8:
							c.get(k)
						default:
							c.delete(k)
						}
						if op%20_000 == 0 {
							c.reconcile()
						}
					}
					c.reconcile()
					// Empty it: delete-then-probe down to nothing.
					for k := range c.oracle {
						c.delete(k)
						c.get(k)
					}
					c.reconcile()
					if c.tab.Len() != 0 {
						t.Fatalf("%d flows left after deleting all", c.tab.Len())
					}
				})
			}
		}
	}
}

// keysHomedAt returns n distinct keys whose probe starts in the slab's
// slots [lo, lo+span), wrapping past the end.
func keysHomedAt(tab *Table[uint64], lo, span, n int) []packet.FlowKey {
	var out []packet.FlowKey
	mask := len(tab.slots) - 1
	for i := 0; len(out) < n; i++ {
		k := testKey(i)
		if (tab.home(Pack(k))-lo)&mask < span {
			out = append(out, k)
		}
	}
	return out
}

// TestWrapAroundCluster builds one cluster across the end of the slab
// and deletes out of its middle, head and tail: what follows a gap must
// move back over the wrap, and nothing homed past the gap may.
func TestWrapAroundCluster(t *testing.T) {
	for del := 0; del < 12; del++ {
		c := newChecker(t, 512, Evict)
		keys := keysHomedAt(c.tab, len(c.tab.slots)-3, 6, 12)
		for i, k := range keys {
			c.insert(k, uint64(i)+1)
		}
		c.reconcile()
		c.delete(keys[del])
		c.reconcile()
		for _, k := range keys {
			c.get(k)
		}
		c.insert(keys[del], 99)
		c.reconcile()
	}
}

// TestClockSparesTouchedFlows is CLOCK's promise: a flow touched since
// the hand last passed it outlives every flow that was not. With a set
// of flows touched once per round and half as many new flows per round
// as the table has untouched entries, no flow of the set is ever
// evicted: the hand cannot come round twice between two touches.
func TestClockSparesTouchedFlows(t *testing.T) {
	const ceiling, kept = 1000, 100
	tab := New[uint64](ceiling, Evict)
	for i := 0; i < kept; i++ {
		p, _ := tab.Insert(testKey(i))
		*p = uint64(i) + 1
	}
	next := kept
	for round := 0; round < 50; round++ {
		for i := 0; i < kept; i++ {
			if p := tab.Get(testKey(i)); p == nil || *p != uint64(i)+1 {
				t.Fatalf("round %d: kept flow %d gone or changed: %v", round, i, p)
			}
		}
		for i := 0; i < (ceiling-kept)/2; i++ {
			tab.Insert(testKey(next))
			next++
		}
	}
	st := tab.Stats()
	if st.Entries != ceiling || st.Evictions != uint64(next-ceiling) {
		t.Fatalf("stats %+v after %d flows through a ceiling of %d", st, next, ceiling)
	}
}

// TestRangeStops covers Range's early exit and in-place value update.
func TestRangeStops(t *testing.T) {
	tab := New[uint64](100, Refuse)
	for i := 0; i < 50; i++ {
		tab.Insert(testKey(i))
	}
	n := 0
	tab.Range(func(_ packet.FlowKey, v *uint64) bool {
		*v = 7
		n++
		return n < 10
	})
	if n != 10 {
		t.Fatalf("Range visited %d flows after being told to stop at 10", n)
	}
	sevens := 0
	tab.Range(func(_ packet.FlowKey, v *uint64) bool {
		if *v == 7 {
			sevens++
		}
		return true
	})
	if sevens != 10 {
		t.Fatalf("%d values kept Range's write, want 10", sevens)
	}
}

// FuzzFlowTable plays an arbitrary script against the map oracle on a
// table small enough that every byte of input matters: each script byte
// is one operation on one of 64 flows whose probes all start within
// eight slots of the slab's end. Each script plays twice: on an empty
// table, and on one that other flows have filled to within eight of its
// first doubling, so that the script's new flows start the doubling and
// the rest of it runs with the copy in flight (a delete or an eviction
// ends the copy at once).
func FuzzFlowTable(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 64, 65, 128, 129, 0, 1}, uint8(8), false)
	f.Add([]byte("\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x80\x81\x82\x00\x01\x02"), uint8(4), true)
	f.Add([]byte("\x3f\x3e\x3d\x3c\xbf\xbe\x3f\x7f\x7e\x3b\x3a\xba\x39"), uint8(255), false)
	f.Fuzz(func(t *testing.T, script []byte, ceiling uint8, refuse bool) {
		policy := Evict
		if refuse {
			policy = Refuse
		}
		play(t, script, int(ceiling), policy, 0)
		play(t, script, int(ceiling), policy, minSlots/4*3-8)
	})
}

// play runs one fuzz script after filling the table with prefill flows
// of its own, which leaves room for ceiling more.
func play(t *testing.T, script []byte, ceiling int, policy Policy, prefill int) {
	c := newChecker(t, prefill+ceiling, policy)
	c.ceiling = c.tab.ceiling // New raises 0 to 1
	c.tab.seed = 1            // the corpus names slots: keep them where it found them
	keys := keysHomedAt(c.tab, len(c.tab.slots)-4, 8, 64)
	for i := 0; i < prefill; i++ { // below the ceiling: the oracle can just follow
		k := testKey(1<<22 + i)
		c.tab.Insert(k)
		c.oracle[k] = 0
	}
	c.check("prefill")
	for i, op := range script {
		k := keys[op&63]
		switch op >> 6 {
		case 0, 1:
			c.insert(k, uint64(i))
		case 2:
			c.delete(k)
		default:
			c.get(k)
		}
	}
	c.reconcile()
}

// TestTableMatchesMapDuringGrowth is the property test with growth in
// flight: almost no deletes, so that each doubling's copy spans
// thousands of operations, lookups and inserts meet flows in both slabs
// and stale copies in the old one, and the oracle reconciles against
// both slabs half-way through every copy. A rare delete, or an eviction
// at a ceiling the copy has not finished before, ends a copy early.
func TestTableMatchesMapDuringGrowth(t *testing.T) {
	for _, policy := range []Policy{Evict, Refuse} {
		for seed := int64(1); seed <= 3; seed++ {
			for _, ceiling := range []int{1_000, 5_000, 1 << 16} {
				t.Run(fmt.Sprintf("policy%d/seed%d/ceiling%d", policy, seed, ceiling), func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					c := newChecker(t, ceiling, policy)
					midway := 0 // doublings reconciled half-way through their copy
					for op, last := 0, 0; op < 3*ceiling; op++ {
						k := testKey(rng.Intn(ceiling * 5 / 4))
						switch r := rng.Intn(1000); {
						case r < 600:
							c.insert(k, rng.Uint64())
						case r < 998:
							c.get(k)
						default:
							c.delete(k)
						}
						if old := len(c.tab.old); old != last && c.tab.moved >= old/2 {
							c.reconcile()
							last = old
							midway++
						}
					}
					c.reconcile()
					if midway == 0 {
						t.Fatal("no doubling was reconciled with its copy in flight")
					}
				})
			}
		}
	}
}

// TestInsertMovesAtMostStep counts, not times, what growth adds to one
// call. A table with the real ceiling takes that many new flows and a
// quarter more: no Insert copies more than moveStep old slots forward,
// every doubling is over before the next starts, and the last before
// the first eviction — which would otherwise finish it in one go.
func TestInsertMovesAtMostStep(t *testing.T) {
	tab := New[uint16](Ceiling, Evict)
	growths, most := 0, 0
	for i := 0; i < Ceiling+Ceiling/4; i++ {
		old, moved := tab.old, tab.moved
		tab.Insert(testKey(i))
		n := 0
		switch {
		case old == nil && tab.old != nil:
			growths++
		case old != nil && len(tab.old) == len(old):
			n = tab.moved - moved
		case old != nil:
			n = len(old) - moved // the copy ended here
		}
		if n > moveStep {
			t.Fatalf("insert %d copied %d slots forward, want at most %d", i, n, moveStep)
		}
		most = max(most, n)
	}
	// 1 024 slots doubled to the 2 097 152 that hold the ceiling.
	if st := tab.Stats(); growths != 11 || most != moveStep || tab.old != nil || st.Evictions != Ceiling/4 {
		t.Fatalf("%d doublings, at most %d slots per insert, copy in flight %v, stats %+v", growths, most, tab.old != nil, st)
	}
}

// TestNewRefusesPointers: a value the collector would have to trace
// cannot go into a slab it may not scan.
func TestNewRefusesPointers(t *testing.T) {
	type counters struct {
		n    [2]uint64
		name [4]byte
	}
	type tagged struct {
		n   uint64
		tag [1]string
	}
	New[counters](1, Evict)
	New[[0]*int](1, Evict) // holds nothing
	for name, build := range map[string]func(){
		"pointer": func() { New[*uint64](1, Evict) },
		"string":  func() { New[tagged](1, Evict) },
		"slice":   func() { New[[]byte](1, Evict) },
		"map":     func() { New[struct{ m map[int]int }](1, Evict) },
		"iface":   func() { New[any](1, Evict) },
		"func":    func() { New[func()](1, Evict) },
		"nested":  func() { New[[3]struct{ p *int }](1, Evict) },
		"unsafe":  func() { New[unsafe.Pointer](1, Evict) },
		"channel": func() { New[chan int](1, Evict) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: New accepted a value type that holds pointers", name)
				}
			}()
			build()
		}()
	}
}
