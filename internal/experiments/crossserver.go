package experiments

import (
	"fmt"
	"runtime"

	"nfp/internal/cluster"
	"nfp/internal/core"
	"nfp/internal/graph"
	"nfp/internal/nfa"
	"nfp/internal/packet"
	"nfp/internal/policy"
	"nfp/internal/trafficgen"
)

// CrossServer runs the §7 scalability extension live: the north-south
// graph partitioned across two servers, measuring the property the
// design promises — exactly one packet copy per inter-server hop, so
// parallelism adds no network bandwidth.
func CrossServer() Table {
	t := Table{
		ID:     "crossserver",
		Title:  "§7 cross-server partitioning: one copy per hop (live, north-south graph)",
		Header: []string{"metric", "measured", "expected"},
	}
	res, err := core.Compile(
		policy.FromChain(nfa.NFVPN, nfa.NFMonitor, nfa.NFFirewall, nfa.NFLB),
		nfa.LookupCostFree, core.Options{})
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	var links []*cluster.ChanLink
	c, err := cluster.New(res.Graph, cluster.Config{
		Capacity: 3,
		NewLink: func(int) cluster.Link {
			l := cluster.NewChanLink(512)
			links = append(links, l)
			return l
		},
	})
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	if err := c.Start(); err != nil {
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	outputs := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := range c.Output() {
			outputs++
			p.Free()
		}
	}()
	gen := trafficgen.New(trafficgen.Config{Flows: 64, Sizes: trafficgen.NewDataCenter(21), Seed: 13})
	const n = 3000
	var inBytes uint64
	for i := 0; i < n; i++ {
		pkt := c.Pool().Get()
		for pkt == nil {
			runtime.Gosched()
			pkt = c.Pool().Get()
		}
		packet.BuildInto(pkt, gen.Next())
		inBytes += uint64(pkt.Len())
		c.Inject(pkt)
	}
	c.Stop()
	<-done

	st := c.Stats()
	frames, bytes := links[0].Stats()
	t.Rows = append(t.Rows,
		[]string{"servers", fmt.Sprint(c.Servers()), "2 (4 NFs at capacity 3)"},
		[]string{"segment graphs", segmentsString(c.Segments()), "-"},
		[]string{"outputs", fmt.Sprint(outputs), fmt.Sprint(n)},
		[]string{"hop drops", fmt.Sprint(st.HopDrops), "0"},
		[]string{"frames per hop per packet", f2(float64(frames) / float64(n)), "1.00"},
		[]string{"wire bytes / ingress bytes", f2(float64(bytes) / float64(inBytes)), "≈1.0 (AH+NSH shims only)"},
	)
	return t
}

func segmentsString(segs []cluster.Segment) string {
	s := ""
	for i, seg := range segs {
		if i > 0 {
			s += " ⇒ "
		}
		s += seg.Graph.String()
	}
	return s
}

// CrossServerEquivalence replays identical traffic through a
// partitioned cluster and a single-server deployment and compares the
// outputs byte for byte.
func CrossServerEquivalence() Table {
	t := Table{
		ID:     "crossserver-equiv",
		Title:  "cross-server deployment produces byte-identical results",
		Header: []string{"deployment", "outputs", "identical to single-server"},
	}
	res, err := core.Compile(policy.FromChain(nfa.NFIDS, nfa.NFMonitor, nfa.NFLB), nfa.LookupCostFree, core.Options{})
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	run := func(capacity int) (map[uint64][]byte, error) {
		c, err := cluster.New(res.Graph, cluster.Config{Capacity: capacity})
		if err != nil {
			return nil, err
		}
		if err := c.Start(); err != nil {
			return nil, err
		}
		outs := map[uint64][]byte{}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for p := range c.Output() {
				outs[p.Meta.PID] = append([]byte(nil), p.Bytes()...)
				p.Free()
			}
		}()
		gen := trafficgen.New(trafficgen.Config{Flows: 16, Seed: 31, Sizes: trafficgen.Fixed(256)})
		for i := 0; i < 300; i++ {
			pkt := c.Pool().Get()
			for pkt == nil {
				runtime.Gosched()
				pkt = c.Pool().Get()
			}
			packet.BuildInto(pkt, gen.Next())
			c.Inject(pkt)
		}
		c.Stop()
		<-done
		return outs, nil
	}
	single, err1 := run(graph.NFCount(res.Graph))
	multi, err2 := run(2)
	if err1 != nil || err2 != nil {
		t.Notes = append(t.Notes, fmt.Sprintf("%v %v", err1, err2))
		return t
	}
	identical := len(single) == len(multi)
	for pid, b := range single {
		if string(multi[pid]) != string(b) {
			identical = false
		}
	}
	t.Rows = append(t.Rows,
		[]string{"single server", fmt.Sprint(len(single)), "-"},
		[]string{"two servers + NSH link", fmt.Sprint(len(multi)), fmt.Sprint(identical)},
	)
	return t
}
