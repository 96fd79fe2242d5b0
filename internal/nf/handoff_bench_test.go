package nf

import (
	"net/netip"
	"runtime"
	"testing"
	"time"

	"nfp/internal/mempool"
	"nfp/internal/packet"
)

// Hand-off geometry: 32-packet bursts of 64 B TCP frames over 16384
// flows (inside NAT's port space, so no flow is refused). handoffDepth
// bursts exist, the bench's 4096-buffer pool. handoffBacklog of them
// wait in front of every one the consumer takes, as in front of a
// bottleneck runtime whose ring is full: a frame is 2048 built frames
// old when it is rewritten, and headers 2048 bytes apart share so few
// cache sets that only about a thousand fit in a core's L2, so it has
// left the builder's private caches, as it has at the bench.
const (
	handoffBurst   = 32
	handoffFlows   = 16384
	handoffDepth   = 128
	handoffBacklog = handoffDepth / 2
)

type handoffBurstBuf [handoffBurst]*packet.Packet

// handoff is a two-goroutine pipeline: a producer builds bursts into
// pool buffers, as the bench injector does, and hands them over a
// channel; the caller's goroutine takes them, runs an NF over them and
// frees them. Both sides spin instead of parking, as the dataplane's
// runtimes do under load: a parked receiver is woken onto the sender's
// own thread, and the frames would never leave the core that wrote
// them. Spinning, each side keeps its own core, so the frames arrive
// written by another one — what a runtime downstream of the injector
// sees and a same-goroutine benchmark (BenchmarkNFCost) never does.
type handoff struct {
	pool  *mempool.Pool
	specs []packet.BuildSpec
	// free and ready each hold every burst there is.
	free, ready chan *handoffBurstBuf
	stop, done  chan struct{}
}

func newHandoff() *handoff {
	h := &handoff{
		// Only handoffDepth bursts exist, so the pool never runs dry.
		pool:  mempool.New(handoffDepth*handoffBurst, 2048),
		free:  make(chan *handoffBurstBuf, handoffDepth),
		ready: make(chan *handoffBurstBuf, handoffDepth),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	for i := 0; i < handoffFlows; i++ {
		h.specs = append(h.specs, packet.BuildSpec{
			SrcIP:   netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)}),
			DstIP:   netip.AddrFrom4([4]byte{192, 0, 2, byte(1 + i%200)}),
			Proto:   packet.ProtoTCP,
			SrcPort: uint16(1024 + i), DstPort: 80, Size: 64,
		})
	}
	for i := 0; i < handoffDepth; i++ {
		h.free <- new(handoffBurstBuf)
	}
	go h.produce()
	return h
}

// produce fills every burst it gets back with freshly built frames,
// walking the flows with a stride so neighbouring packets differ.
func (h *handoff) produce() {
	defer close(h.done)
	next := 0
	for {
		var bb *handoffBurstBuf
		for bb == nil {
			select {
			case bb = <-h.free:
			case <-h.stop:
				return
			default:
			}
		}
		h.pool.AllocBatch(bb[:])
		for _, p := range bb {
			packet.BuildInto(p, h.specs[next])
			next = (next + 7919) % handoffFlows
		}
		h.ready <- bb
	}
}

// close stops the producer and waits for it to exit.
func (h *handoff) close() {
	close(h.stop)
	<-h.done
}

// burst takes one built burst, runs n over it and frees it, returning
// the time n took.
func (h *handoff) burst(n NF, verdicts []Verdict) time.Duration {
	for len(h.ready) < handoffBacklog {
	}
	bb := <-h.ready
	t0 := time.Now()
	ProcessAll(n, bb[:], verdicts)
	d := time.Since(t0)
	h.pool.FreeBatch(bb[:])
	h.free <- bb
	return d
}

// BenchmarkRewriteHandoff times the tuple rewriters, lb and nat, on
// bursts another goroutine built: ns/pkt is the NF's own time per
// packet, the hand-off's wait excluded (the bench's
// nf.<x>.busy_ns_per_pkt). One op is one burst. It fails if a burst
// allocates anywhere in the pipeline.
func BenchmarkRewriteHandoff(b *testing.B) {
	if runtime.GOMAXPROCS(0) < 2 {
		b.Skip("a cross-core hand-off needs two Ps")
	}
	for _, name := range []string{"lb", "nat"} {
		b.Run(name, func(b *testing.B) {
			n, err := NewRegistry().New(name)
			if err != nil {
				b.Fatal(err)
			}
			h := newHandoff()
			defer h.close()
			verdicts := make([]Verdict, handoffBurst)
			// One pass over every flow first: NAT's bindings are made
			// here, not in the timed loop.
			for i := 0; i < handoffFlows/handoffBurst; i++ {
				h.burst(n, verdicts)
			}
			if a := testing.AllocsPerRun(100, func() { h.burst(n, verdicts) }); a != 0 {
				b.Fatalf("%v allocs per burst, want 0", a)
			}
			var busy time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				busy += h.burst(n, verdicts)
			}
			b.StopTimer()
			for _, v := range verdicts {
				if v != Pass {
					b.Fatalf("%s dropped an established flow's packet", name)
				}
			}
			b.ReportMetric(float64(busy.Nanoseconds())/float64(b.N*handoffBurst), "ns/pkt")
		})
	}
}
