package main

import (
	"math/rand"
	"net/netip"

	"nfp/internal/packet"
	"nfp/internal/trafficgen"
)

const (
	// orderDraws is how many Zipf visits are pre-drawn; the timed loop
	// cycles through them.
	orderDraws = 1 << 18
	// sizeDraws is how many datacenter-mix frame sizes are pre-drawn.
	// Odd, so the size cycle and any power-of-two flow cycle drift
	// against each other instead of pinning a size to a flow.
	sizeDraws = 1<<16 + 1
	// flowSpace is the source-address space established flows are
	// spread over (10.0.0.0/11); a flow's index maps to its address by
	// a seeded bijection, so every flow has a distinct 5-tuple.
	flowSpace = 1 << 21
)

// tuple is a flow's 5-tuple (the protocol is always TCP), kept free of
// pointers: a quarter of a million build specs would otherwise sit in
// the heap the benchmarked program's garbage collector has to scan.
type tuple struct {
	src, dst     [4]byte
	sport, dport uint16
}

// spec is the build spec of a size-byte frame of the flow.
func (t tuple) spec(size int) packet.BuildSpec {
	return packet.BuildSpec{
		SrcIP: netip.AddrFrom4(t.src), DstIP: netip.AddrFrom4(t.dst),
		Proto: packet.ProtoTCP, SrcPort: t.sport, DstPort: t.dport,
		TTL: 64, Size: size,
	}
}

// traffic is everything a workload's packets are made from, generated
// from the seed during set-up. It is immutable afterwards: each server
// fed from it walks it with its own cursor, so the benchmarked server
// and the reference server see the same packet sequence.
type traffic struct {
	flows    []tuple  // established flows
	order    []uint32 // visit order over flows, cycled
	sizes    []uint16 // frame sizes, cycled
	newEvery int
	fresh0   uint32 // first never-seen tuple counter
	dports   []uint16
}

func newTraffic(w *workload, seed int64) *traffic {
	rng := rand.New(rand.NewSource(seed))
	t := &traffic{newEvery: w.newEvery, fresh0: uint32(rng.Int31())}
	for _, ch := range w.chains {
		t.dports = append(t.dports, ch.dport)
	}

	mult := uint32(rng.Int31())<<1 | 1 // odd: a bijection modulo a power of two
	off := uint32(rng.Int31())
	t.flows = make([]tuple, w.flows)
	for i := range t.flows {
		x := (uint32(i)*mult + off) % flowSpace
		t.flows[i] = tuple{
			src:   [4]byte{10, byte(x >> 16), byte(x >> 8), byte(x)},
			dst:   [4]byte{10, 100, 0, byte(1 + rng.Intn(16))},
			sport: uint16(1024 + rng.Intn(60000)),
			dport: t.dports[i%len(t.dports)],
		}
	}

	if w.zipf > 1 {
		z := rand.NewZipf(rng, w.zipf, 1, uint64(w.flows-1))
		t.order = make([]uint32, orderDraws)
		for i := range t.order {
			t.order[i] = uint32(z.Uint64())
		}
	} else {
		t.order = make([]uint32, w.flows)
		for i, p := range rng.Perm(w.flows) {
			t.order[i] = uint32(p)
		}
	}

	if w.dcSizes {
		dc := trafficgen.NewDataCenter(rng.Int63())
		t.sizes = make([]uint16, sizeDraws)
		for i := range t.sizes {
			t.sizes[i] = uint16(dc.Next())
		}
	} else {
		t.sizes = []uint16{64}
	}
	return t
}

// fresh maps a counter to a 5-tuple outside the established flows'
// address space (11.0.0.0/8). The low 24 bits become the address and
// the rest the port, so distinct counters give distinct tuples.
func (t *traffic) fresh(c uint32) tuple {
	return tuple{
		src:   [4]byte{11, byte(c >> 16), byte(c >> 8), byte(c)},
		dst:   [4]byte{10, 100, 0, 1},
		sport: 1024 + uint16(c>>24),
		dport: t.dports[int(c)%len(t.dports)],
	}
}

// cursor is one reader's position in a traffic's packet stream. The
// stream starts with every established flow once, in index order (the
// warm-up prefix), then follows the visit order with never-seen tuples
// interleaved. The zero position replays it from the beginning.
type cursor struct {
	t       *traffic
	n       int // specs produced
	pos     int
	sizePos int
	fresh   uint32 // never-seen tuples produced so far
}

func (t *traffic) cursor() cursor { return cursor{t: t} }

// next returns the spec of the next packet.
func (c *cursor) next() packet.BuildSpec {
	t := c.t
	steady := c.n - len(t.flows) // packets into the steady state, this one excluded
	c.n++
	var flow tuple
	switch {
	case steady < 0:
		flow = t.flows[c.n-1]
	case t.newEvery > 0 && (steady+1)%t.newEvery == 0:
		flow = t.fresh(t.fresh0 + c.fresh)
		c.fresh++
	default:
		flow = t.flows[t.order[c.pos]]
		if c.pos++; c.pos == len(t.order) {
			c.pos = 0
		}
	}
	size := int(t.sizes[c.sizePos])
	if c.sizePos++; c.sizePos == len(t.sizes) {
		c.sizePos = 0
	}
	return flow.spec(size)
}
