// Package rtc is the BESS-style run-to-completion baseline of Table 4:
// "the RTC model abandons virtualization techniques and consolidates
// the entire service chain inside one CPU core" (§7). Each replica
// runs the whole chain as one function call per packet; an RSS-style
// flow hash spreads traffic across replicas, mirroring "BESS could
// duplicate 5 entire chains to place on the 5 cores, and perform
// hashing in the NIC to split traffic across cores".
package rtc

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"nfp/internal/flow"
	"nfp/internal/mempool"
	"nfp/internal/nf"
	"nfp/internal/packet"
	"nfp/internal/ring"
)

// Config sizes the RTC baseline.
type Config struct {
	PoolSize    int // default 4096
	BufSize     int // default 2048
	RingSize    int // default 512
	OutputQueue int // default 1024
	// Replicas is the number of chain copies (cores); default 1.
	Replicas int
	Registry *nf.Registry
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
	if c.Replicas == 0 {
		c.Replicas = 1
	}
	if c.Registry == nil {
		c.Registry = nf.NewRegistry()
	}
}

// replica is one consolidated chain on one virtual core.
type replica struct {
	nfs []nf.NF
	rx  *ring.MPSC[*packet.Packet]
}

// Server is the run-to-completion baseline.
type Server struct {
	cfg      Config
	pool     *mempool.Pool
	replicas []*replica
	out      chan *packet.Packet

	started  atomic.Bool
	stopping atomic.Bool
	wg       sync.WaitGroup

	injected atomic.Uint64
	outCount atomic.Uint64
	drops    atomic.Uint64
}

// New builds an RTC server running the named chain on cfg.Replicas
// replicas, each with its own NF instances (per-core state, as BESS
// chains duplicated across cores have).
func New(cfg Config, chain ...string) (*Server, error) {
	cfg.setDefaults()
	if len(chain) == 0 {
		return nil, fmt.Errorf("rtc: empty chain")
	}
	s := &Server{
		cfg:  cfg,
		pool: mempool.New(cfg.PoolSize, cfg.BufSize),
		out:  make(chan *packet.Packet, cfg.OutputQueue),
	}
	for r := 0; r < cfg.Replicas; r++ {
		rep := &replica{rx: ring.NewMPSC(cfg.RingSize)}
		for _, name := range chain {
			inst, err := cfg.Registry.New(name)
			if err != nil {
				return nil, err
			}
			rep.nfs = append(rep.nfs, inst)
		}
		s.replicas = append(s.replicas, rep)
	}
	return s, nil
}

// Pool returns the packet pool.
func (s *Server) Pool() *mempool.Pool { return s.pool }

// Output streams completed packets; the consumer must Free them.
func (s *Server) Output() <-chan *packet.Packet { return s.out }

// Start launches one goroutine per replica.
func (s *Server) Start() error {
	if !s.started.CompareAndSwap(false, true) {
		return fmt.Errorf("rtc: already started")
	}
	for _, rep := range s.replicas {
		s.wg.Add(1)
		go func(r *replica) {
			defer s.wg.Done()
			s.run(r)
		}(rep)
	}
	return nil
}

// run executes the consolidated chain: every NF runs back-to-back on
// the same goroutine with zero inter-NF queueing — the RTC advantage.
func (s *Server) run(r *replica) {
	for {
		pkt := r.rx.Dequeue()
		if pkt == nil {
			if s.stopping.Load() {
				return
			}
			runtime.Gosched()
			continue
		}
		dropped := false
		for _, inst := range r.nfs {
			if inst.Process(pkt) == nf.Drop {
				dropped = true
				break
			}
		}
		if dropped {
			s.drops.Add(1)
			pkt.Free()
			continue
		}
		s.outCount.Add(1)
		s.out <- pkt
	}
}

// Inject hashes the packet's flow to a replica (RSS) and queues it.
func (s *Server) Inject(pkt *packet.Packet) {
	idx := 0
	if len(s.replicas) > 1 {
		if k, err := flow.FromPacket(pkt); err == nil {
			idx = int(k.Hash() % uint64(len(s.replicas)))
		}
	}
	s.injected.Add(1)
	for !s.replicas[idx].rx.Enqueue(pkt) {
		runtime.Gosched()
	}
}

// Stop drains in-flight packets and terminates the replicas.
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
}

// Stats returns a counter snapshot.
func (s *Server) Stats() Stats {
	return Stats{
		Injected: s.injected.Load(),
		Outputs:  s.outCount.Load(),
		Drops:    s.drops.Load(),
	}
}
