// Cross-server NF parallelism (§7, "NFP Scalability"): when a service
// graph outgrows one server, NFP partitions it across servers, cutting
// only where a single packet copy is in flight, and carries the NFP
// metadata between servers in an NSH shim — "each server sends only
// one copy of a packet to the next server", so parallelism costs no
// extra network bandwidth.
//
// This example compiles the north-south chain, partitions it onto two
// simulated servers (capacity 3 NFs each), runs traffic end to end,
// and prints the per-hop bandwidth accounting.
//
//	go run ./examples/crossserver
package main

import (
	"fmt"
	"log"
	"runtime"

	"nfp/internal/cluster"
	"nfp/internal/core"
	"nfp/internal/graph"
	"nfp/internal/nfa"
	"nfp/internal/packet"
	"nfp/internal/policy"
	"nfp/internal/trafficgen"
)

func main() {
	// The cost-free lookup keeps the paper's graph: with measured costs
	// the north-south chain's one parallel stage is too light to keep.
	res, err := core.Compile(
		policy.FromChain(nfa.NFVPN, nfa.NFMonitor, nfa.NFFirewall, nfa.NFLB),
		nfa.LookupCostFree, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("service graph:  %s (%d NFs)\n", res.Graph, graph.NFCount(res.Graph))

	var links []*cluster.ChanLink
	c, err := cluster.New(res.Graph, cluster.Config{
		Capacity: 3, // a "small server": the 4-NF graph won't fit
		NewLink: func(i int) cluster.Link {
			l := cluster.NewChanLink(512)
			links = append(links, l)
			return l
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("partitioned onto %d servers:\n", c.Servers())
	for _, seg := range c.Segments() {
		fmt.Printf("  server %d: %s (%d NFs)\n", seg.Index, seg.Graph, seg.NFs)
	}
	for i, h := range cluster.CopiesPerHop(c.Segments()) {
		fmt.Printf("  hop %d→%d: %d packet copy per packet (by construction)\n", i, i+1, h)
	}

	if err := c.Start(); err != nil {
		log.Fatal(err)
	}
	outputs, encapsulated := 0, 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := range c.Output() {
			outputs++
			if p.HasAH() {
				encapsulated++
			}
			p.Free()
		}
	}()

	gen := trafficgen.New(trafficgen.Config{Flows: 64, Sizes: trafficgen.NewDataCenter(11), Seed: 3})
	const total = 5000
	var sentBytes uint64
	for i := 0; i < total; i++ {
		pkt := c.Pool().Get()
		for pkt == nil {
			runtime.Gosched()
			pkt = c.Pool().Get()
		}
		packet.BuildInto(pkt, gen.Next())
		sentBytes += uint64(pkt.Len())
		if !c.Inject(pkt) {
			log.Fatal("inject failed")
		}
	}
	c.Stop()
	<-done

	st := c.Stats()
	fmt.Printf("\ntraffic: %d in, %d out (%d VPN-encapsulated), %d NF drops, %d hop drops\n",
		st.Injected, outputs, encapsulated, st.Drops, st.HopDrops)
	for i, l := range links {
		frames, bytes := l.Stats()
		fmt.Printf("link %d: %d frames, %d bytes (%.2fx ingress bytes — NSH shim only, no copy amplification)\n",
			i, frames, bytes, float64(bytes)/float64(sentBytes))
	}
	for i, ss := range c.ServerStats() {
		fmt.Printf("server %d: injected=%d outputs=%d copies=%d (copies stay server-local)\n",
			i, ss.Injected, ss.Outputs, ss.Copies)
	}
}
