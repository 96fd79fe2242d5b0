// Datacenter service chains: the paper's Figure 13 scenario. Compiles
// the north-south (VPN → Monitor → Firewall → LB) and west-east
// (IDS → Monitor → LB) chains, runs both live on the datacenter packet
// mixture, verifies the NFP semantics (monitor counters, VPN
// encapsulation, LB rewrites, IDS drops), and prints the predicted
// latency win from the calibrated model.
//
//	go run ./examples/datacenter
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"nfp"
	"nfp/internal/core"
	"nfp/internal/graph"
	"nfp/internal/netflow"
	"nfp/internal/nf"
	"nfp/internal/nfa"
	"nfp/internal/packet"
	"nfp/internal/policy"
	"nfp/internal/sim"
	"nfp/internal/trafficgen"
)

func main() {
	runChain("north-south", []string{nfp.NFVPN, nfp.NFMonitor, nfp.NFFirewall, nfp.NFLoadBalancer})
	fmt.Println()
	runChain("west-east", []string{nfp.NFIDS, nfp.NFMonitor, nfp.NFLoadBalancer})
}

func runChain(label string, chain []string) {
	fmt.Printf("=== %s: %v ===\n", label, chain)

	// The paper's graph: Algorithm 1 through the cost-free lookup. The
	// default compile weighs measured NF costs and runs both chains
	// sequentially, as `nfpcompile -chain` shows.
	res, err := core.Compile(policy.FromChain(chain...), nfa.LookupCostFree, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("service graph: %s (equivalent length %d, %d copies)\n",
		res.Graph, graph.EquivalentLength(res.Graph), graph.TotalCopies(res.Graph))

	// Predicted latency from the Fig 13 calibration.
	p := sim.MacroParams()
	dist := trafficgen.NewDataCenter(42)
	mean := int(dist.Mean())
	onvm := p.LatencyONVM(chain, mean)
	nfpLat := p.LatencyGraph(res.Graph, mean)
	fmt.Printf("model latency: sequential %.0f µs -> NFP %.0f µs (%.1f%% reduction)\n",
		onvm, nfpLat, (1-nfpLat/onvm)*100)
	fmt.Printf("resource overhead: %.1f%% (header-only copies at mean %d B)\n",
		sim.MeanResourceOverhead(dist.Mean(), graph.TotalCopies(res.Graph)+1)*100, mean)

	// Live run with inspectable NF instances.
	mon := nf.NewMonitor()
	instances := map[graph.NF]nf.NF{{Name: nfa.NFMonitor}: mon}
	sys := nfp.NewSystem()
	srv := sys.NewServer(nfp.ServerConfig{PoolSize: 1024})
	if err := srv.AddGraphInstances(1, res.Graph, instances); err != nil {
		log.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		log.Fatal(err)
	}

	type outcome struct {
		outputs, encapsulated, rewritten int
	}
	done := make(chan outcome)
	go func() {
		var o outcome
		for pkt := range srv.Output() {
			o.outputs++
			if pkt.HasAH() {
				o.encapsulated++
			}
			if b := pkt.SrcIP().As4(); b[0] == 10 && b[1] == 100 {
				o.rewritten++ // LB VIP as source = rewrite merged in
			}
			pkt.Free()
		}
		done <- o
	}()

	gen := trafficgen.New(trafficgen.Config{Flows: 128, Sizes: dist, Seed: 7})
	const total = 10000
	for i := 0; i < total; i++ {
		pkt := srv.Pool().Get()
		for pkt == nil {
			time.Sleep(time.Microsecond)
			pkt = srv.Pool().Get()
		}
		packet.BuildInto(pkt, gen.Next())
		if !srv.Inject(pkt) {
			log.Fatal("classification failed")
		}
	}
	srv.Stop()
	o := <-done

	st := srv.Stats()
	fmt.Printf("live run: %d in, %d out, %d dropped\n", st.Injected, o.outputs, st.Drops)
	fmt.Printf("  monitor tracked %d flows / %d packets (parallel branch state intact)\n",
		mon.FlowCount(), mon.Total().Packets)
	fmt.Printf("  LB rewrites merged into %d outputs\n", o.rewritten)
	if o.encapsulated > 0 {
		fmt.Printf("  VPN encapsulated %d outputs (AH header present)\n", o.encapsulated)
	}
	fmt.Printf("  copies: %d (%d bytes), join load %v tails per shard\n",
		st.Copies, st.CopiedBytes, st.MergerLoad)

	exportNetFlow(mon)
}

// exportNetFlow ships the monitor's counters as NetFlow v5 datagrams
// over a real loopback UDP socket and decodes them on the collector
// side — the Monitor NF is NetFlow (Table 2), so close the loop.
func exportNetFlow(mon *nf.Monitor) {
	collector, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		log.Printf("netflow collector: %v", err)
		return
	}
	defer collector.Close()
	conn, err := net.DialUDP("udp", nil, collector.LocalAddr().(*net.UDPAddr))
	if err != nil {
		log.Printf("netflow dial: %v", err)
		return
	}
	defer conn.Close()

	exporter := netflow.NewExporter(conn, 1)
	datagrams, err := exporter.Export(mon)
	if err != nil {
		log.Printf("netflow export: %v", err)
		return
	}
	flows := 0
	buf := make([]byte, 65535)
	for i := 0; i < datagrams; i++ {
		collector.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, _, err := collector.ReadFromUDP(buf)
		if err != nil {
			log.Printf("netflow recv: %v", err)
			return
		}
		_, records, err := netflow.Decode(buf[:n])
		if err != nil {
			log.Printf("netflow decode: %v", err)
			return
		}
		flows += len(records)
	}
	fmt.Printf("  netflow: exported %d datagrams / %d flow records over UDP and decoded them back\n",
		datagrams, flows)
}
