package dataplane

import (
	"fmt"
	"math/bits"

	"nfp/internal/flow"
	"nfp/internal/packet"
)

// atEntry accumulates the copies of one packet at one join (§5.3,
// Figure 4: current count and received versions). The key is (pr, join,
// pid): keying by the generation runtime (pointer identity is per shard
// per generation) keeps old- and new-generation entries of one MID
// disjoint; PIDs are never reused across a packet's lifetime, so the
// copies of one packet always land on one entry.
type atEntry struct {
	pr    *planRuntime // nil: the slot is free
	pid   uint64
	join  int32
	count int32 // tails received so far
	// dropped: a tail reported a drop; prov is the provenance of the
	// FIRST one. Parallel branches can each report a drop for one
	// packet, but the packet dies exactly once, so one cause must win
	// deterministically (arrival order at this merger).
	dropped bool
	prov    dropProv
	// firstNS is the clock read of the drained burst the first tail came
	// in; finalize's burst read − firstNS is the merge latency (how long
	// copies waited in the Accumulating Table).
	firstNS  int64
	versions [packet.MaxVersion + 1]*packet.Packet
	// The tails of a sampled packet, in arrival order, as a list through
	// atTable.tails (1-based; 0: none), closed as merge-wait spans when
	// the join finalizes.
	firstTail, lastTail int32
}

// atTail is the version and span cursor of one tail of a sampled packet.
// Per tail, not per version: the branches of a no-copy group report the
// same version, each with its own chain — and a join may collect more
// tails than a stage has versions.
type atTail struct {
	ver    uint8
	next   int32 // the entry's (or the free list's) next tail, 1-based
	cursor int64
}

// atTable is one merger's Accumulating Table: a preallocated
// open-addressed array of entries (linear probing, backward-shift
// delete, so no tombstone ever lengthens a probe). Admission bounds the
// entries that can be live (DESIGN.md §6) and the array holds twice
// that, so a probe always ends at a free slot and an insert past the
// bound is a bug in that arithmetic, not a condition to wait out.
type atTable struct {
	slots []atEntry
	shift uint // 64 − log2(len(slots)): the hash's top bits index a slot
	live  int
	bound int
	// tails holds the span cursors of the sampled packets' tails, off the
	// entries: only one packet in TraceSampleRate pays for them. It grows
	// to the most ever waiting at once (at most the merger ring) and is
	// reused through freeTail from then on.
	tails    []atTail
	freeTail int32
}

func newATTable(bound int) *atTable {
	n := 2
	for n < 2*bound {
		n <<= 1
	}
	return &atTable{slots: make([]atEntry, n), shift: uint(64 - bits.TrailingZeros(uint(n))), bound: bound}
}

// home is the slot a key's probe starts at. The merger agent already
// spent the low bits of the same hash picking the instance; the top bits
// are still spread.
func (t *atTable) home(join int32, pid uint64) int {
	return int(flow.HashPID(pid^uint64(join)<<packet.PIDBits) >> t.shift)
}

// at returns the slot of (pr, join, pid), claiming a free one when the
// key has none yet (fresh: the entry is zero but for its key).
func (t *atTable) at(pr *planRuntime, join int32, pid uint64) (i int, fresh bool) {
	mask := len(t.slots) - 1
	for i = t.home(join, pid); ; i = (i + 1) & mask {
		e := &t.slots[i]
		if e.pr == nil {
			if t.live == t.bound {
				panic(fmt.Sprintf("dataplane: accumulating table full: %d entries live, the most the admission budget lets in (merger ring / 2; %d slots)",
					t.live, len(t.slots)))
			}
			t.live++
			e.pr, e.join, e.pid = pr, join, pid
			return i, true
		}
		if e.pid == pid && e.pr == pr && e.join == join {
			return i, false
		}
	}
}

// noteTail appends one tail of a sampled packet to its entry's list.
func (t *atTable) noteTail(e *atEntry, ver uint8, cursor int64) {
	n := t.freeTail
	if n == 0 {
		t.tails = append(t.tails, atTail{})
		n = int32(len(t.tails))
	} else {
		t.freeTail = t.tails[n-1].next
	}
	t.tails[n-1] = atTail{ver: ver, cursor: cursor}
	if e.lastTail == 0 {
		e.firstTail = n
	} else {
		t.tails[e.lastTail-1].next = n
	}
	e.lastTail = n
}

// dropTails gives the entry's list of tails back for reuse.
func (t *atTable) dropTails(e *atEntry) {
	if e.lastTail != 0 {
		t.tails[e.lastTail-1].next, t.freeTail = t.freeTail, e.firstTail
		e.firstTail, e.lastTail = 0, 0
	}
}

// remove frees slot i and closes the gap: every entry of the cluster
// behind it whose probe would have passed over i moves up, so a lookup
// never needs to look past a free slot.
func (t *atTable) remove(i int) {
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].pr != nil; j = (j + 1) & mask {
		e := &t.slots[j]
		// e may move to i unless its home lies in (i, j].
		if (j-t.home(e.join, e.pid))&mask >= (j-i)&mask {
			t.slots[i] = *e
			i = j
		}
	}
	t.slots[i] = atEntry{}
	t.live--
}
