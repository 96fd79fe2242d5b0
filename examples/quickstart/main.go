// Quickstart: compile a chaining policy into a service graph, run it on
// the NFP dataplane, and print what happened — including why the
// compiler did or did not keep a stage parallel.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"net/netip"
	"time"

	"nfp"
)

func main() {
	sys := nfp.NewSystem()

	// The operator writes the traditional sequential intent: an IDS,
	// then a traffic monitor, then a load balancer (the paper's
	// west-east chain). FromChain converts it to Order rules.
	pol := nfp.FromChain(nfp.NFIDS, nfp.NFMonitor, nfp.NFLoadBalancer)
	fmt.Println("policy:")
	fmt.Println(pol)

	// The orchestrator identifies that Monitor and LB are independent
	// (the monitor only reads the 5-tuple the LB rewrites — with a
	// header-only copy, both can run at once), then weighs what the
	// stage saves against its copy and merge: two NFs this light run
	// faster as a chain.
	srv, res, err := sys.Deploy(pol, nfp.CompileOptions{}, nfp.ServerConfig{PoolSize: 512})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncompiled service graph: %s\n", res.Graph)
	for _, st := range res.Stages {
		fmt.Printf("candidate stage: %s\n", st)
	}
	fmt.Printf("equivalent chain length: %d (of 3 sequential hops)\n",
		nfp.EquivalentLength(res.Graph))
	fmt.Printf("packet copies per packet: %d\n\n", nfp.TotalCopies(res.Graph))

	if err := srv.Start(); err != nil {
		log.Fatal(err)
	}

	// Consume outputs concurrently with injection.
	type result struct{ outputs, encapsulated int }
	done := make(chan result)
	go func() {
		var r result
		for p := range srv.Output() {
			r.outputs++
			p.Free()
		}
		done <- r
	}()

	// Push a few thousand packets: one flow of web traffic plus one
	// "attack" flow carrying an IDS signature, which the inline IDS
	// drops — consistently, whatever shape the graph took.
	const total = 5000
	for i := 0; i < total; i++ {
		pkt := srv.Pool().Get()
		for pkt == nil {
			time.Sleep(time.Microsecond)
			pkt = srv.Pool().Get()
		}
		spec := nfp.BuildSpec{
			SrcIP:   netip.AddrFrom4([4]byte{10, 0, 0, byte(1 + i%4)}),
			DstIP:   netip.MustParseAddr("10.100.0.1"),
			SrcPort: uint16(1024 + i%16),
			DstPort: 80,
			Payload: []byte("GET /index.html HTTP/1.1"),
		}
		if i%10 == 0 {
			spec.Payload = []byte("exploit attempt SIG-0013-ATTACK here")
		}
		nfp.BuildPacketInto(pkt, spec)
		if !srv.Inject(pkt) {
			log.Fatal("classification failed")
		}
	}
	srv.Stop()
	r := <-done

	st := srv.Stats()
	fmt.Printf("injected:  %d\n", st.Injected)
	fmt.Printf("delivered: %d (LB-rewritten)\n", r.outputs)
	fmt.Printf("dropped:   %d (IDS signature hits)\n", st.Drops)
	fmt.Printf("copies:    %d header-only copies, %d bytes total\n", st.Copies, st.CopiedBytes)
	fmt.Printf("joins:     %v tails per shard\n", st.MergerLoad)
}
