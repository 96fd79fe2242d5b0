package cluster

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"nfp/internal/dataplane"
	"nfp/internal/graph"
	"nfp/internal/nf"
	"nfp/internal/packet"
)

// Config sizes a Cluster.
type Config struct {
	// Capacity is the number of NF instances one server can host
	// (the paper's "20 physical CPU cores" budget per box).
	Capacity int
	// ServicePathID tags the NSH service path (default 1).
	ServicePathID uint32
	// Server is the per-server dataplane configuration.
	Server dataplane.Config
	// Registry supplies NF factories to every server.
	Registry *nf.Registry
	// NewLink builds the link from segment i to i+1 (default
	// in-memory ChanLink).
	NewLink func(i int) Link
}

// Cluster runs one service graph partitioned across multiple NFP
// servers, chained by NSH-encapsulated links with exactly one packet
// copy per hop (§7).
type Cluster struct {
	cfg      Config
	segments []Segment
	servers  []*dataplane.Server
	links    []Link
	out      chan *packet.Packet

	started     atomic.Bool
	stopped     atomic.Bool
	wg          sync.WaitGroup
	ingressDone []chan struct{}
	injected    atomic.Uint64
	outCount    atomic.Uint64
	hopDrops    atomic.Uint64 // frames rejected at a downstream ingress
}

// MID under which every segment installs its subgraph.
const clusterMID = 1

// New partitions g by cfg.Capacity and builds the per-segment servers
// and links. The graph's NFs must resolve through cfg.Registry.
func New(g graph.Node, cfg Config) (*Cluster, error) {
	if cfg.Capacity == 0 {
		cfg.Capacity = 20
	}
	if cfg.ServicePathID == 0 {
		cfg.ServicePathID = 1
	}
	if cfg.Registry == nil {
		cfg.Registry = nf.NewRegistry()
	}
	if cfg.NewLink == nil {
		cfg.NewLink = func(int) Link { return NewChanLink(0) }
	}
	segments, err := Partition(g, cfg.Capacity)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:      cfg,
		segments: segments,
		out:      make(chan *packet.Packet, 1024),
	}
	for range segments[:len(segments)-1] {
		c.links = append(c.links, cfg.NewLink(len(c.links)))
	}
	for _, seg := range segments {
		scfg := cfg.Server
		scfg.Registry = cfg.Registry
		srv := dataplane.New(scfg)
		if err := srv.AddGraph(clusterMID, seg.Graph); err != nil {
			return nil, fmt.Errorf("cluster: segment %d: %w", seg.Index, err)
		}
		c.servers = append(c.servers, srv)
	}
	return c, nil
}

// Segments returns the partition (for inspection and tests).
func (c *Cluster) Segments() []Segment { return c.segments }

// Servers returns the number of servers in the cluster.
func (c *Cluster) Servers() int { return len(c.servers) }

// Pool returns the ingress server's packet pool.
func (c *Cluster) Pool() interface{ Get() *packet.Packet } {
	return c.servers[0].Pool()
}

// Output streams packets that completed the full service path; the
// consumer must Free them (they live in the LAST server's pool).
func (c *Cluster) Output() <-chan *packet.Packet { return c.out }

// Start launches every server and the inter-server forwarding
// goroutines.
func (c *Cluster) Start() error {
	if !c.started.CompareAndSwap(false, true) {
		return fmt.Errorf("cluster: already started")
	}
	for _, srv := range c.servers {
		if err := srv.Start(); err != nil {
			return err
		}
	}
	// Egress of server i → NSH encap → link i.
	for i := 0; i < len(c.servers)-1; i++ {
		c.wg.Add(1)
		go func(i int) {
			defer c.wg.Done()
			c.runEgress(i)
		}(i)
	}
	// Link i → decap → ingress of server i+1.
	c.ingressDone = make([]chan struct{}, len(c.servers)-1)
	for i := 0; i < len(c.servers)-1; i++ {
		c.ingressDone[i] = make(chan struct{})
		c.wg.Add(1)
		go func(i int) {
			defer c.wg.Done()
			defer close(c.ingressDone[i])
			c.runIngress(i)
		}(i)
	}
	// Last server's output is the cluster output.
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		last := c.servers[len(c.servers)-1]
		for p := range last.Output() {
			c.outCount.Add(1)
			c.out <- p
		}
		close(c.out)
	}()
	return nil
}

// runEgress drains server i's output, encapsulates, and ships exactly
// one copy of each packet over the link.
func (c *Cluster) runEgress(i int) {
	srv := c.servers[i]
	link := c.links[i]
	si := uint8(len(c.servers) - 1 - i) // remaining segments (RFC 8300 SI)
	for p := range srv.Output() {
		h := NSH{
			ServicePathID: c.cfg.ServicePathID,
			ServiceIndex:  si,
			Meta:          p.Meta,
		}
		if err := EncapNSH(p, h); err == nil {
			_ = link.Send(p.Bytes())
		} else {
			c.hopDrops.Add(1)
		}
		p.Free()
	}
	link.Close()
}

// runIngress receives frames from link i, decapsulates, and injects
// into server i+1 with the carried metadata.
func (c *Cluster) runIngress(i int) {
	link := c.links[i]
	srv := c.servers[i+1]
	for frame := range link.Frames() {
		pkt := srv.Pool().Get()
		for pkt == nil {
			runtime.Gosched()
			pkt = srv.Pool().Get()
		}
		buf := pkt.Buffer()
		if len(frame) > len(buf) {
			c.hopDrops.Add(1)
			pkt.Free()
			continue
		}
		copy(buf, frame)
		pkt.SetLen(len(frame))
		h, err := DecapNSH(pkt)
		if err != nil || h.ServicePathID != c.cfg.ServicePathID {
			c.hopDrops.Add(1)
			pkt.Free()
			continue
		}
		pkt.Meta = h.Meta
		if !srv.InjectPreclassified(pkt) {
			c.hopDrops.Add(1)
			pkt.Free()
		}
	}
}

// Inject classifies a packet (built in the ingress server's pool) into
// the service path.
func (c *Cluster) Inject(pkt *packet.Packet) bool {
	if !c.servers[0].Inject(pkt) {
		return false
	}
	c.injected.Add(1)
	return true
}

// Stop drains the pipeline front to back and terminates everything.
// The output consumer must keep draining until Stop returns.
func (c *Cluster) Stop() {
	if !c.started.Load() || !c.stopped.CompareAndSwap(false, true) {
		return
	}
	// Stopping server i closes its output, which ends egress i, which
	// closes link i, which ends ingress i once it has injected every
	// remaining frame — only then is it safe to stop server i+1.
	for i, srv := range c.servers {
		srv.Stop()
		if i < len(c.ingressDone) {
			<-c.ingressDone[i]
		}
	}
	c.wg.Wait()
}

// Stats summarizes cluster-level counters; per-server detail comes
// from ServerStats.
type Stats struct {
	Injected uint64
	Outputs  uint64
	HopDrops uint64
	// Drops aggregates NF drops across all segments.
	Drops uint64
}

// Stats returns a snapshot.
func (c *Cluster) Stats() Stats {
	st := Stats{
		Injected: c.injected.Load(),
		Outputs:  c.outCount.Load(),
		HopDrops: c.hopDrops.Load(),
	}
	for _, srv := range c.servers {
		st.Drops += srv.Stats().Drops
	}
	return st
}

// ServerStats returns the per-segment dataplane counters.
func (c *Cluster) ServerStats() []dataplane.Stats {
	out := make([]dataplane.Stats, len(c.servers))
	for i, srv := range c.servers {
		out[i] = srv.Stats()
	}
	return out
}
