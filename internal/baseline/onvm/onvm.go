// Package onvm is the OpenNetVM-style baseline of the paper's
// evaluation: a pipelining-model NFV platform where every inter-NF hop
// transits a single centralized virtual switch.
//
// "OpenNetVM dedicates a CPU core for the centralized switch to forward
// packets, while NFP relies on the distributed NF runtime ... NFP could
// alleviate the performance bottleneck of the centralized switch during
// high packet rates" (§6.2.1). This package reproduces exactly that
// bottleneck: one switch goroutine moves every packet between the NFs'
// rings, so its service rate caps the chain throughput regardless of
// chain length.
package onvm

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"nfp/internal/mempool"
	"nfp/internal/nf"
	"nfp/internal/packet"
	"nfp/internal/ring"
)

// Config sizes the baseline server.
type Config struct {
	PoolSize    int // default 4096
	BufSize     int // default 2048
	RingSize    int // default 512
	OutputQueue int // default 1024
	Registry    *nf.Registry
}

func (c *Config) setDefaults() {
	if c.PoolSize == 0 {
		c.PoolSize = 4096
	}
	if c.BufSize == 0 {
		c.BufSize = 2048
	}
	if c.RingSize == 0 {
		c.RingSize = 512
	}
	if c.OutputQueue == 0 {
		c.OutputQueue = 1024
	}
	if c.Registry == nil {
		c.Registry = nf.NewRegistry()
	}
}

// nfSlot is one NF with its receive and transmit rings (Figure 3's
// R/T pairs, but forwarded by the central switch instead of the NF).
type nfSlot struct {
	inst nf.NF
	rx   *ring.MPSC[*packet.Packet]
	tx   *ring.MPSC[*packet.Packet]
}

// Server is a sequential service chain behind a centralized vswitch.
type Server struct {
	cfg   Config
	pool  *mempool.Pool
	chain []*nfSlot
	in    *ring.MPSC[*packet.Packet]
	out   chan *packet.Packet

	started  atomic.Bool
	stopping atomic.Bool
	wg       sync.WaitGroup

	injected atomic.Uint64
	outCount atomic.Uint64
	drops    atomic.Uint64
	switchOp atomic.Uint64 // forwarding operations performed by the switch
}

// New builds a baseline server running the named NFs in sequence.
func New(cfg Config, chain ...string) (*Server, error) {
	cfg.setDefaults()
	if len(chain) == 0 {
		return nil, fmt.Errorf("onvm: empty chain")
	}
	s := &Server{
		cfg:  cfg,
		pool: mempool.New(cfg.PoolSize, cfg.BufSize),
		in:   ring.NewMPSC(cfg.RingSize),
		out:  make(chan *packet.Packet, cfg.OutputQueue),
	}
	for _, name := range chain {
		inst, err := cfg.Registry.New(name)
		if err != nil {
			return nil, err
		}
		s.chain = append(s.chain, &nfSlot{
			inst: inst,
			rx:   ring.NewMPSC(cfg.RingSize),
			tx:   ring.NewMPSC(cfg.RingSize),
		})
	}
	return s, nil
}

// Pool returns the packet pool; injected packets must use its buffers.
func (s *Server) Pool() *mempool.Pool { return s.pool }

// Output streams completed packets; the consumer must Free them.
func (s *Server) Output() <-chan *packet.Packet { return s.out }

// Start launches one goroutine per NF plus the centralized switch.
func (s *Server) Start() error {
	if !s.started.CompareAndSwap(false, true) {
		return fmt.Errorf("onvm: already started")
	}
	for _, slot := range s.chain {
		s.wg.Add(1)
		go func(sl *nfSlot) {
			defer s.wg.Done()
			s.runNF(sl)
		}(slot)
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.runSwitch()
	}()
	return nil
}

// runNF is the per-NF loop: rx → process → tx. Unlike NFP's runtime it
// performs no forwarding decisions — the switch owns those.
func (s *Server) runNF(sl *nfSlot) {
	for {
		pkt := sl.rx.Dequeue()
		if pkt == nil {
			if s.stopping.Load() {
				return
			}
			runtime.Gosched()
			continue
		}
		if sl.inst.Process(pkt) == nf.Drop {
			s.drops.Add(1)
			pkt.Free()
			continue
		}
		for !sl.tx.Enqueue(pkt) {
			runtime.Gosched()
		}
	}
}

// runSwitch is the centralized vswitch loop: it alone moves packets
// from the input ring to NF 0, between consecutive NFs, and from the
// last NF to the output.
func (s *Server) runSwitch() {
	for {
		busy := false
		if pkt := s.in.Dequeue(); pkt != nil {
			s.forward(pkt, 0)
			busy = true
		}
		for i, sl := range s.chain {
			if pkt := sl.tx.Dequeue(); pkt != nil {
				s.forward(pkt, i+1)
				busy = true
			}
		}
		if !busy {
			if s.stopping.Load() && s.idle() {
				return
			}
			runtime.Gosched()
		}
	}
}

// forward moves one packet to chain position i (len(chain) = output).
func (s *Server) forward(pkt *packet.Packet, i int) {
	s.switchOp.Add(1)
	if i >= len(s.chain) {
		s.outCount.Add(1)
		s.out <- pkt
		return
	}
	for !s.chain[i].rx.Enqueue(pkt) {
		runtime.Gosched()
	}
}

// idle reports whether all rings have drained.
func (s *Server) idle() bool {
	if s.in.Len() > 0 {
		return false
	}
	for _, sl := range s.chain {
		if sl.rx.Len() > 0 || sl.tx.Len() > 0 {
			return false
		}
	}
	return s.injected.Load() == s.outCount.Load()+s.drops.Load()
}

// Inject queues one packet at the chain entrance.
func (s *Server) Inject(pkt *packet.Packet) {
	s.injected.Add(1)
	for !s.in.Enqueue(pkt) {
		runtime.Gosched()
	}
}

// Stop drains in-flight packets and terminates the goroutines.
func (s *Server) Stop() {
	if !s.started.Load() || s.stopping.Load() {
		return
	}
	for s.injected.Load() > s.outCount.Load()+s.drops.Load() {
		runtime.Gosched()
	}
	s.stopping.Store(true)
	s.wg.Wait()
	close(s.out)
}

// Stats reports baseline counters.
type Stats struct {
	Injected, Outputs, Drops uint64
	// SwitchOps counts centralized forwarding operations: chain hops
	// per packet + 1, all serialized through one goroutine.
	SwitchOps uint64
}

// Stats returns a counter snapshot.
func (s *Server) Stats() Stats {
	return Stats{
		Injected:  s.injected.Load(),
		Outputs:   s.outCount.Load(),
		Drops:     s.drops.Load(),
		SwitchOps: s.switchOp.Load(),
	}
}
