// Package mempool provides the pre-allocated packet buffer pool that
// stands in for DPDK's hugepage mbuf pool (§5, Figure 3). All packet
// memory — received packets and the copies created for parallel
// branches — comes from a Pool, so the fast path performs no dynamic
// allocation ("we prepare memory blocks to store input or copied packets
// during the system initialization", §5.2).
package mempool

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"nfp/internal/offheap"
	"nfp/internal/packet"
	"nfp/internal/telemetry"
)

// Pool is a fixed-capacity pool of packet buffers. It is safe for
// concurrent use by multiple NF runtimes.
//
// A pool can be split into per-shard partitions with Partition: each
// partition is itself a Pool with a private free list (uncontended
// allocation), but all partitions share the parent's metric objects, so
// the registry-visible counters and the nfp_mempool_in_use leak gauge
// always report whole-pool totals — a buffer leaked by any shard keeps
// the aggregate gauge non-zero. In-use accounting is therefore
// delta-based (Add on alloc, subtract on free), never an absolute Set:
// absolute writes from sibling partitions would stomp each other.
type Pool struct {
	bufSize int
	cap     int
	reserve int
	// frames is the mapping the pool's buffers are slots of (nil when
	// they are heap), shared with its partitions: every pool over it
	// holds the handle, and every packet its owner pool, so the
	// handle's finalizer waits for all of them. It is the handle's, not
	// a Pool's, because pool → free list → packet → owner → pool is a
	// cycle.
	frames *offheap.Slab

	// parts, once set by Partition, makes this pool a facade: its own
	// free list is empty and allocation delegates round-robin to the
	// children (rr is the probe cursor).
	parts atomic.Pointer[[]*Pool]
	rr    atomic.Uint32

	mu   sync.Mutex
	free []*packet.Packet
	// faultHook, when set, is consulted before every allocation batch;
	// returning false fails the allocation as if the pool were
	// exhausted. Installed by the fault-injection layer to test
	// allocation-failure paths deterministically.
	faultHook func(want int) bool

	// The pool owns its metrics (so standalone pools still count) and
	// attaches them to a server's registry via MustRegister. Partitions
	// alias their parent's objects — see Partition.
	allocs   *telemetry.Counter
	frees    *telemetry.Counter
	failures *telemetry.Counter
	inUse    *telemetry.Gauge
	inUseHW  *telemetry.Gauge
}

// Headroom is how far into its slot an allocated frame starts (DPDK's
// RTE_PKTMBUF_HEADROOM), so an insertion near its front need not move
// the payload (packet.InsertAt): a 2048-byte slot holds 1984-byte frames.
const Headroom = 64

// New creates a pool of n slots of bufSize bytes each (the headroom is
// half a slot under 2×Headroom). The frame room should cover the MTU,
// the VPN NF's AH header and its tag. The slots are one slab, reserved
// here and never written here (newFrames): a frame's bytes stay valid
// while its packet, this pool or one of its partitions is reachable.
// The descriptors are one array, so New allocates the same handful of
// objects whatever n is; a descriptor is an interior pointer into it,
// and holding one keeps the array, its owner pool and the slab alive.
func New(n, bufSize int) *Pool {
	if n <= 0 || bufSize <= 0 {
		panic(fmt.Sprintf("mempool: invalid pool geometry n=%d bufSize=%d", n, bufSize))
	}
	mem, frames := newFrames(n*bufSize, offheap.Map)
	p := &Pool{
		bufSize: bufSize, cap: n, frames: frames,
		free:   make([]*packet.Packet, n),
		allocs: telemetry.NewCounter(), frees: telemetry.NewCounter(),
		failures: telemetry.NewCounter(),
		inUse:    telemetry.NewGauge(), inUseHW: telemetry.NewGauge(),
	}
	descs := make([]desc, n)
	for i := range descs {
		buf := mem[i*bufSize : (i+1)*bufSize : (i+1)*bufSize]
		descs[i].Attach(buf, 0, p)
		p.free[i] = &descs[i].Packet
	}
	return p
}

// newFrames returns size bytes of zeroed frame memory and the mapping
// that holds them, which mapAnon (offheap.Map) takes: the kernel
// zero-fills it page by page on first touch, so neither this call nor
// New writes a byte of it and a server pays only for the slots its
// traffic touches (DPDK reserves its mbuf pool once, in hugepages). The
// frames keep 4-KB pages: a 2-MB first-touch fault would land inside a
// small server's set-up, and huge pages measured no gain here (DESIGN.md
// §16, rejected item 13). Where nothing is mapped, the memory is one
// heap slice and there is no handle.
func newFrames(size int, mapAnon func(int, bool) *offheap.Slab) ([]byte, *offheap.Slab) {
	if m := mapAnon(size, false); m != nil {
		return m.Bytes(), m
	}
	return make([]byte, size), nil
}

// desc is one element of a pool's descriptor array: a packet padded to
// 160 bytes, the size class a lone packet.Packet is allocated in. At
// that stride the descriptors sit on cache lines as they did when each
// was an allocation of its own; at the bare 152-byte stride fwd64
// forwarded less (DESIGN.md §16, "The frame slab"). The padding's
// length stops the build if a packet outgrows the class.
type desc struct {
	packet.Packet
	_ [160 - unsafe.Sizeof(packet.Packet{})]byte
}

// Partition splits a full (entirely free) pool into k child pools and
// returns them. Buffers are divided as evenly as possible; each
// buffer's owner is re-pointed at its owning child, so pkt.Free
// always returns a buffer to the partition it came from, no matter
// which goroutine frees it. The parent becomes a facade: Get /
// AllocBatch / AllocBatchReserved delegate round-robin across the children
// (so traffic sources that only hold a *Pool keep working), and
// Available / InUse / Stats aggregate them. All children share the
// parent's metric objects — never call MustRegister on a child.
//
// Partition must be called before any allocation and at most once.
func (p *Pool) Partition(k int) []*Pool {
	if k < 1 {
		panic(fmt.Sprintf("mempool: invalid partition count %d", k))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.parts.Load() != nil {
		panic("mempool: already partitioned")
	}
	if len(p.free) != p.cap {
		panic("mempool: Partition requires a full pool (no outstanding buffers)")
	}
	parts := make([]*Pool, k)
	base := 0
	for i := range parts {
		share := p.cap / k
		if i < p.cap%k {
			share++
		}
		if share == 0 {
			panic(fmt.Sprintf("mempool: pool of %d cannot feed %d partitions", p.cap, k))
		}
		c := &Pool{
			bufSize: p.bufSize, cap: share, frames: p.frames,
			free:   make([]*packet.Packet, 0, share),
			allocs: p.allocs, frees: p.frees,
			failures: p.failures,
			inUse:    p.inUse, inUseHW: p.inUseHW,
		}
		c.free = append(c.free, p.free[base:base+share]...)
		for _, pkt := range c.free {
			pkt.Reset(p.bufSize) // the whole slot again, to hand to Attach
			pkt.Attach(pkt.Buffer(), 0, c)
		}
		base += share
		parts[i] = c
	}
	p.free = p.free[:0]
	p.parts.Store(&parts)
	return parts
}

// SetReserve keeps k buffers out of reach of Get and AllocBatch,
// available only to AllocBatchReserved. The dataplane reserves buffers
// for the packet copies its parallel stages create, and admits packets
// only while their copies fit the reserve: whatever a traffic source
// holds, a copy allocation then never fails. A partitioned pool has no
// reserve of its own; each partition (each shard) sets its own.
func (p *Pool) SetReserve(k int) {
	if k < 0 || k >= p.cap || p.parts.Load() != nil {
		panic(fmt.Sprintf("mempool: reserve %d out of range for pool of %d, or pool partitioned", k, p.cap))
	}
	p.mu.Lock()
	p.reserve = k
	p.mu.Unlock()
}

// Get returns a packet backed by a pool buffer, or nil if the pool is
// exhausted down to the reserve. Exhaustion models receive-queue drops
// under overload.
func (p *Pool) Get() *packet.Packet {
	var one [1]*packet.Packet
	if p.allocBatch(one[:], true) == 0 {
		return nil
	}
	return one[0]
}

// AllocBatch fills out with up to len(out) fresh packets under a single
// lock acquisition — the burst analog of Get. It returns the count; a
// short batch (possibly zero) means the pool is exhausted down to the
// reserve, and no buffers are lost: exactly the returned prefix is
// handed out.
func (p *Pool) AllocBatch(out []*packet.Packet) int {
	return p.allocBatch(out, true)
}

// AllocBatchReserved is AllocBatch for the dataplane's internal copy
// path: it may consume the reserved buffers.
func (p *Pool) AllocBatchReserved(out []*packet.Packet) int {
	return p.allocBatch(out, false)
}

// allocBatch is the one allocation implementation; Get is a
// single-element burst over it.
func (p *Pool) allocBatch(out []*packet.Packet, honorReserve bool) int {
	if len(out) == 0 {
		return 0
	}
	if pp := p.parts.Load(); pp != nil {
		return p.partitionedAlloc(*pp, out, honorReserve)
	}
	return p.localAlloc(out, honorReserve, false)
}

// partitionedAlloc fills a burst by probing the child pools round-robin
// from a rotating start, so sources that allocate through the parent
// spread their working set across every partition. Children probe
// quietly: the parent counts at most one exhaustion event per burst,
// exactly like an unpartitioned pool.
func (p *Pool) partitionedAlloc(parts []*Pool, out []*packet.Packet, honorReserve bool) int {
	p.mu.Lock()
	hook := p.faultHook
	p.mu.Unlock()
	if honorReserve && hook != nil && !hook(len(out)) {
		p.failures.Add(1)
		return 0
	}
	start := int(p.rr.Add(1))
	n := 0
	for i := 0; i < len(parts) && n < len(out); i++ {
		c := parts[(start+i)%len(parts)]
		n += c.localAlloc(out[n:], honorReserve, true)
	}
	if n < len(out) {
		p.failures.Add(1)
	}
	return n
}

// localAlloc allocates from this pool's own free list. quiet suppresses
// the exhaustion-failure counter bump (partition probing counts one
// failure per parent burst, not one per empty child probed).
func (p *Pool) localAlloc(out []*packet.Packet, honorReserve, quiet bool) int {
	p.mu.Lock()
	if honorReserve && p.faultHook != nil && !p.faultHook(len(out)) {
		p.mu.Unlock()
		p.failures.Add(1)
		return 0
	}
	avail := len(p.free)
	if honorReserve {
		avail -= p.reserve
	}
	n := len(out)
	if n > avail {
		n = avail
	}
	if n <= 0 {
		p.mu.Unlock()
		if !quiet {
			p.failures.Add(1)
		}
		return 0
	}
	base := len(p.free) - n
	copy(out[:n], p.free[base:])
	p.free = p.free[:base]
	p.mu.Unlock()
	if n < len(out) && !quiet {
		// The burst came back short: one exhaustion event, like a
		// rejected scalar Get.
		p.failures.Add(1)
	}
	// Delta update so sibling partitions sharing the gauge compose; the
	// high-water mark trails the aggregate value it observes.
	p.inUse.Add(int64(n))
	p.inUseHW.SetMax(p.inUse.Value())
	p.allocs.Add(uint64(n))
	room := p.bufSize - min(Headroom, p.bufSize/2)
	for _, pkt := range out[:n] {
		pkt.Reset(room)
	}
	return n
}

// SetFaultHook installs (or clears, with nil) a hook consulted before
// every allocation batch of a traffic source (Get, AllocBatch; the
// reserved path's buffers are spoken for, so it cannot be exhausted);
// returning false fails the whole batch as a pool-exhaustion event. The fault-injection layer uses it to fail
// allocations on a deterministic schedule; production code never sets
// it, so the fast path pays only a nil check under the existing lock.
func (p *Pool) SetFaultHook(fn func(want int) bool) {
	p.mu.Lock()
	p.faultHook = fn
	p.mu.Unlock()
}

// FreeBatch returns a batch of packets to the pool under a single lock
// acquisition — the burst analog of per-packet Free. Every packet must
// have been allocated from this pool and not freed since (a caller that
// cannot know asks packet.Owner first); mixing pools or double-freeing
// trips the capacity guard.
func (p *Pool) FreeBatch(pkts []*packet.Packet) {
	if len(pkts) == 0 {
		return
	}
	if p.parts.Load() != nil {
		// Partitioned facade: each packet knows its owning child, so the
		// batch degrades to per-packet frees.
		for _, pkt := range pkts {
			pkt.Free()
		}
		return
	}
	p.mu.Lock()
	if len(p.free)+len(pkts) > p.cap {
		p.mu.Unlock()
		panic("mempool: FreeBatch overflows the pool (double free or foreign packet)")
	}
	p.free = append(p.free, pkts...)
	p.mu.Unlock()
	p.inUse.Add(-int64(len(pkts)))
	p.frees.Add(uint64(len(pkts)))
}

// Put returns a packet to the free list: what pkt.Free calls on the
// packet's owner.
func (p *Pool) Put(pkt *packet.Packet) {
	p.mu.Lock()
	if len(p.free) == p.cap {
		p.mu.Unlock()
		panic("mempool: double free")
	}
	p.free = append(p.free, pkt)
	p.mu.Unlock()
	p.inUse.Add(-1)
	p.frees.Add(1)
}

// BufSize returns the size of each slot; a frame starts Headroom bytes
// into it.
func (p *Pool) BufSize() int { return p.bufSize }

// Cap returns the pool capacity in buffers.
func (p *Pool) Cap() int { return p.cap }

// Available returns the number of free buffers (summed over the
// partitions when the pool is partitioned).
func (p *Pool) Available() int {
	if pp := p.parts.Load(); pp != nil {
		total := 0
		for _, c := range *pp {
			total += c.Available()
		}
		return total
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

// InUse returns the number of outstanding buffers. A non-zero value
// after a drained Stop is a leak. On a partitioned pool this is the
// sum over all partitions: a single shard's leak keeps the whole
// pool's leak gauge non-zero, which is what nfpd's exit gate checks.
func (p *Pool) InUse() int {
	if pp := p.parts.Load(); pp != nil {
		total := 0
		for _, c := range *pp {
			total += c.InUse()
		}
		return total
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cap - len(p.free)
}

// MustRegister attaches the pool's metrics to a telemetry registry.
// Call at most once per registry (duplicate series panic). Safe with a
// nil registry.
func (p *Pool) MustRegister(reg *telemetry.Registry) {
	reg.MustRegisterCounter("nfp_mempool_allocs_total", p.allocs)
	reg.MustRegisterCounter("nfp_mempool_frees_total", p.frees)
	reg.MustRegisterCounter("nfp_mempool_alloc_failures_total", p.failures)
	reg.MustRegisterGauge("nfp_mempool_in_use", p.inUse)
	reg.MustRegisterGauge("nfp_mempool_in_use_high_water", p.inUseHW)
	reg.Gauge("nfp_mempool_capacity").Set(int64(p.cap))
}

// Stats reports cumulative pool activity.
type Stats struct {
	Allocs, Frees, Failures uint64
	// InUse is the current leak gauge.
	InUse int
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Allocs:   p.allocs.Value(),
		Frees:    p.frees.Value(),
		Failures: p.failures.Value(),
		InUse:    p.InUse(),
	}
}
