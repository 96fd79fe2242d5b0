// Package flowtab is the per-flow state table under every stateful NF:
// one flat, pointer-free slab keyed by packet.FlowKey, with a ceiling
// and a stated behaviour when the ceiling is hit.
//
// The paper's Monitor "maintains per-flow counters … keyed by the hash
// of the 5-tuple" (§6.1), and §7 scales NFs by migrating exactly that
// state. Keeping it in one table type gives every NF the same bound,
// the same at-ceiling behaviour, the same three gauges and one iterator
// to export state through.
//
// Layout: open addressing with linear probing over a single []slot.
// A slot holds the key packed into two words and the value inline — no
// per-entry heap object, nothing for the garbage collector to scan when
// V holds no pointers — so a cold flow costs the one cache line its
// slot is in. Deletion shifts the rest of the cluster back (no
// tombstones), so a table that churns at its ceiling probes no further
// than one that never deleted.
//
// A Table belongs to one goroutine (an NF instance); only Stats may be
// called from another.
package flowtab

import (
	"encoding/binary"
	"math/bits"
	"math/rand/v2"
	"sync/atomic"

	"nfp/internal/packet"
)

// Ceiling is the most flows a stateful NF keeps. It is a constant, not a
// setting: every table-backed NF gets the same bound (≤ 2·Ceiling slots;
// 64 MB of 32-byte monitor entries), and no workload or figure needs
// another.
const Ceiling = 1 << 20

// minSlots is the slab a table starts with; it doubles from there.
// Small enough that building a graph with several stateful NFs costs
// microseconds, large enough that a thousand-flow workload never grows.
const minSlots = 1024

// Policy is what Insert does with a new flow once the table holds its
// ceiling.
type Policy uint8

const (
	// Evict makes room by CLOCK (second chance): a hand goes round the
	// slab, sparing every entry touched during this lap or the last, and
	// takes the first one that was not. Right for state that is worth
	// less than the newest flow's: counters, session contexts.
	Evict Policy = iota
	// Refuse leaves the table as it is and returns no entry. Right for
	// state an established flow depends on: a NAT binding.
	Refuse
)

// Stats is a table's occupancy and how often its bound was hit.
type Stats struct {
	Entries   uint64 // flows held now
	Evictions uint64 // flows displaced at the ceiling (Evict)
	Refusals  uint64 // new flows turned away at the ceiling (Refuse)
}

// Bits of slot.b above the 40 key bits (ports 0–31, protocol 32–39).
const (
	keyMask    = 1<<40 - 1
	slotUsed   = 1 << 40
	stampShift = 41 // CLOCK: the lap (mod 256) the entry was last touched in
	stampMask  = 0xff << stampShift
)

// The hand visits the slab a unit of handUnit slots at a time, units in
// the order of a multiplicative stride, so that consecutive evictions
// fall far apart. A hand that swept slot by slot would empty the slab
// behind it while new flows keep landing everywhere: by the end of a lap
// the stretch ahead of it is packed solid, and linear probing there
// degenerates. Within a unit the slots are neighbours, so one cache miss
// serves several evictions.
const (
	handUnit   = 8
	handStride = 0x9e3779b1 // odd: a bijection on any power-of-two unit count
)

// slot is one entry: 16 bytes of key and flags, then the value.
type slot[V any] struct {
	a   uint64 // source and destination address
	b   uint64 // ports, protocol, slotUsed, lap stamp
	val V
}

// Table maps flow keys to values of type V, which should hold no
// pointers (the slab is then invisible to the garbage collector).
type Table[V any] struct {
	slots   []slot[V]
	shift   uint // 64 - log2(len(slots)): the index is the hash's top bits
	live    int
	growAt  int // live count at which the slab doubles; > ceiling at full size
	ceiling int
	policy  Policy
	seed    uint64

	// CLOCK state. hand counts the slots visited this lap; lap counts
	// laps, starting at 2 so that "two laps ago" exists from the start.
	// A touch stamps an entry with the current lap instead of setting a
	// bit the hand would clear: the hand's verdict is then a function of
	// (stamp, lap) alone, and meeting an entry twice in a lap — remove
	// shifts entries across the hand — changes nothing.
	hand int
	lap  uint8

	// Written by the owner when the population changes — never on a hit —
	// and read by Stats from the scraping goroutine.
	entries, evictions, refusals atomic.Uint64
}

// New returns an empty table that holds at most ceiling flows (at least
// one) and applies p to a new flow beyond that.
func New[V any](ceiling int, p Policy) *Table[V] {
	if ceiling < 1 {
		ceiling = 1
	}
	t := &Table[V]{ceiling: ceiling, policy: p, seed: rand.Uint64(), lap: 2}
	t.resize(minSlots)
	return t
}

// Pack folds a key into two words: the addresses in a, the ports and
// the protocol in the low 40 bits of b, whose upper 24 are zero and the
// caller's to use. It is the form a slot stores (here and in the
// classifier's microflow cache): comparing a key is two word compares.
func Pack(k packet.FlowKey) (a, b uint64) {
	a = uint64(binary.LittleEndian.Uint32(k.Src[:])) | uint64(binary.LittleEndian.Uint32(k.Dst[:]))<<32
	b = uint64(k.SrcPort) | uint64(k.DstPort)<<16 | uint64(k.Proto)<<32
	return a, b
}

func unpack(a, b uint64) packet.FlowKey {
	var k packet.FlowKey
	binary.LittleEndian.PutUint32(k.Src[:], uint32(a))
	binary.LittleEndian.PutUint32(k.Dst[:], uint32(a>>32))
	k.SrcPort, k.DstPort, k.Proto = uint16(b), uint16(b>>16), uint8(b>>32)
	return k
}

// home is the slot a key's probe starts at: the top bits of one
// 64×64→128-bit multiply of the two key words, each offset by the
// table's random seed (the wyhash mix). FlowKey.Hash is byte-serial FNV
// and must stay so — ECMP backends and shard assignment are pinned to
// its values — but FNV's low bits cluster on sequential addresses and
// ports, which linear probing turns into long runs.
func (t *Table[V]) home(a, b uint64) int {
	hi, lo := bits.Mul64(a^t.seed^0xa0761d6478bd642f, b^bits.RotateLeft64(t.seed, 32)^0xe7037ed1a0b428db)
	return int((hi ^ lo) >> t.shift)
}

// find returns the index of the key's slot and true, or of the empty
// slot that ends its probe and false.
func (t *Table[V]) find(a, b uint64) (int, bool) {
	mask := len(t.slots) - 1
	for i := t.home(a, b); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.b&slotUsed == 0 {
			return i, false
		}
		if s.a == a && s.b&keyMask == b {
			return i, true
		}
	}
}

// Get returns the flow's value, nil when the table does not hold it.
// The pointer is good until the next Insert or Delete.
func (t *Table[V]) Get(k packet.FlowKey) *V {
	a, b := Pack(k)
	i, ok := t.find(a, b)
	if !ok {
		return nil
	}
	return t.touch(i)
}

// touch stamps slot i with the current lap and returns its value.
func (t *Table[V]) touch(i int) *V {
	s := &t.slots[i]
	if stamp := uint64(t.lap) << stampShift; s.b&stampMask != stamp { // a read-mostly caller keeps the line clean
		s.b = s.b&^stampMask | stamp
	}
	return &s.val
}

// Insert returns the flow's value, adding a zero one when the table
// does not hold it (fresh reports which). At the ceiling a new flow
// displaces another (Evict) or is turned away with a nil value
// (Refuse); either is counted. The pointer is good until the next
// Insert or Delete.
func (t *Table[V]) Insert(k packet.FlowKey) (v *V, fresh bool) {
	a, b := Pack(k)
	i, ok := t.find(a, b)
	if ok {
		return t.touch(i), false
	}
	switch {
	case t.live == t.ceiling:
		if t.policy == Refuse {
			t.refusals.Store(t.refusals.Load() + 1)
			return nil, false
		}
		t.evict()
		i, _ = t.find(a, b) // the victim's cluster may have been this one
	case t.live == t.growAt:
		t.resize(2 * len(t.slots))
		i, _ = t.find(a, b)
	}
	// A new flow starts as if last touched two laps ago: it earns its
	// second chance with a second packet, so a flood of one-packet flows
	// evicts itself.
	s := &t.slots[i]
	s.a, s.b = a, b|slotUsed|uint64(t.lap-2)<<stampShift
	t.live++
	t.entries.Store(uint64(t.live))
	return &s.val, true
}

// Delete removes the flow and reports whether the table held it.
func (t *Table[V]) Delete(k packet.FlowKey) bool {
	i, ok := t.find(Pack(k))
	if ok {
		t.remove(i)
		t.entries.Store(uint64(t.live))
	}
	return ok
}

// remove empties slot i and closes the gap: every later entry of the
// cluster whose home lies at or before the gap moves back into it, so
// no probe ever has to step over a hole.
func (t *Table[V]) remove(i int) {
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; ; j = (j + 1) & mask {
		s := &t.slots[j]
		if s.b&slotUsed == 0 {
			break
		}
		// s may fill the gap at i unless its home lies in (i, j]: then
		// it already sits on its own probe path past the gap.
		if h := t.home(s.a, s.b&keyMask); (j-h)&mask >= (j-i)&mask {
			t.slots[i] = *s
			i = j
		}
	}
	t.slots[i] = slot[V]{}
	t.live--
}

// evict frees one slot by CLOCK: the hand moves on until it meets an
// entry touched in neither this lap nor the last, and removes it. With
// every entry freshly touched that takes two turns of the slab; it
// cannot take more, for nothing is touched meanwhile.
func (t *Table[V]) evict() {
	units := len(t.slots) / handUnit
	for {
		i := (t.hand/handUnit*handStride&(units-1))*handUnit + t.hand%handUnit
		lap := t.lap
		if t.hand++; t.hand == len(t.slots) {
			t.hand = 0
			t.lap++
		}
		if s := &t.slots[i]; s.b&slotUsed != 0 && lap-uint8(s.b>>stampShift) >= 2 {
			t.remove(i)
			t.evictions.Store(t.evictions.Load() + 1)
			return
		}
	}
}

// resize moves every entry into a fresh slab of n slots (a power of
// two). Insert doubles the slab each time it is three quarters full and
// not yet at the ceiling, so growth stops at the smallest slab that
// holds the ceiling under that load — and is over before the first
// eviction: the hand never has to be carried across.
func (t *Table[V]) resize(n int) {
	old := t.slots
	t.slots = make([]slot[V], n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	t.growAt = n / 4 * 3
	mask := n - 1
	for k := range old {
		s := &old[k]
		if s.b&slotUsed == 0 {
			continue
		}
		i := t.home(s.a, s.b&keyMask)
		for t.slots[i].b&slotUsed != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = *s
	}
}

// Len returns the number of flows held.
func (t *Table[V]) Len() int { return t.live }

// Range calls fn for every flow, in slab order, until fn returns false.
// fn may change the value it is handed but not the table.
func (t *Table[V]) Range(fn func(k packet.FlowKey, v *V) bool) {
	for i := range t.slots {
		s := &t.slots[i]
		if s.b&slotUsed != 0 && !fn(unpack(s.a, s.b), &s.val) {
			return
		}
	}
}

// Stats reports occupancy and the bound's counters. Unlike every other
// method it may be called from any goroutine.
func (t *Table[V]) Stats() Stats {
	return Stats{
		Entries:   t.entries.Load(),
		Evictions: t.evictions.Load(),
		Refusals:  t.refusals.Load(),
	}
}
