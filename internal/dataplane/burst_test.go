package dataplane

import (
	"fmt"
	"hash/fnv"
	"net/netip"
	"runtime"
	"sync"
	"testing"

	"nfp/internal/core"
	"nfp/internal/graph"
	"nfp/internal/nf"
	"nfp/internal/nfa"
	"nfp/internal/packet"
	"nfp/internal/policy"
	"nfp/internal/telemetry"
)

// obsNF wraps a real NF and digests the exact bytes it is handed,
// before the NF touches them. The digest is an order-independent XOR
// of per-packet hashes keyed by (nf, PID, version, bytes), so two runs
// are comparable even when bursts reorder goroutine interleavings.
// obsNF deliberately does NOT implement BatchProcessor: wrapped in it,
// an NF runs its scalar Process path.
type obsNF struct {
	inner  nf.NF
	digest uint64
	seen   uint64
}

func (o *obsNF) Name() string         { return o.inner.Name() }
func (o *obsNF) Profile() nfa.Profile { return o.inner.Profile() }

func (o *obsNF) observe(p *packet.Packet) {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d|", o.inner.Name(), p.Meta.PID, p.Meta.Version)
	h.Write(p.Bytes())
	o.digest ^= h.Sum64()
	o.seen++
}

func (o *obsNF) Process(p *packet.Packet) nf.Verdict {
	o.observe(p)
	return o.inner.Process(p)
}

// obsBatchNF adds the batch capability on top of obsNF: it observes
// every packet of the burst, then hands the whole burst to the inner
// NF (its ProcessBatch when implemented, scalar fallback otherwise).
// Differential runs wrap NFs in obsNF at burst=1 and obsBatchNF at
// burst=32, so the comparison pits each NF's scalar implementation
// against its batched one end to end.
type obsBatchNF struct{ *obsNF }

func (o *obsBatchNF) ProcessBatch(pkts []*packet.Packet, verdicts []nf.Verdict) {
	for _, p := range pkts {
		o.observe(p)
	}
	nf.ProcessAll(o.inner, pkts, verdicts)
}

// mkBurstNF instantiates the real evaluation NFs used by the
// differential chains. The firewall gets an explicit deny-172.16/12
// ACL so the traffic mix below exercises the drop path
// deterministically.
func mkBurstNF(t *testing.T, name string) nf.NF {
	t.Helper()
	switch name {
	case nfa.NFMonitor:
		return nf.NewMonitor()
	case nfa.NFLB:
		lb, err := nf.NewLoadBalancer(nf.DefaultBackendCount)
		if err != nil {
			t.Fatal(err)
		}
		return lb
	case nfa.NFIDS:
		ids, err := nf.NewIDS(10, true)
		if err != nil {
			t.Fatal(err)
		}
		return ids
	case nfa.NFVPN:
		v, err := nf.NewVPN(nil)
		if err != nil {
			t.Fatal(err)
		}
		return v
	case nfa.NFFirewall:
		return nf.NewFirewallFromRules([]nf.ACLRule{{
			Src:       netip.MustParsePrefix("172.16.0.0/12"),
			Dst:       netip.MustParsePrefix("0.0.0.0/0"),
			SrcPortLo: 0, SrcPortHi: 0xffff,
			DstPortLo: 0, DstPortHi: 0xffff,
			Action: nf.Deny,
		}}, nf.Allow)
	}
	t.Fatalf("no constructor for NF %q", name)
	return nil
}

// burstSpec builds deterministic mixed traffic: mostly 10/8 flows that
// pass the firewall, every fourth packet from 172.16/12 so chains with
// a firewall drop a fixed quarter of the load.
func burstSpec(i int) packet.BuildSpec {
	src := netip.AddrFrom4([4]byte{10, 0, byte(i % 5), byte(1 + i%7)})
	if i%4 == 3 {
		src = netip.AddrFrom4([4]byte{172, 16, byte(i % 3), byte(1 + i%9)})
	}
	return packet.BuildSpec{
		SrcIP:   src,
		DstIP:   netip.MustParseAddr("10.100.0.1"),
		Proto:   packet.ProtoTCP,
		SrcPort: uint16(1024 + i%32), DstPort: 80,
		TTL:     64,
		Payload: []byte(fmt.Sprintf("burst differential payload %03d", i%16)),
	}
}

// runTrafficBurst is runTraffic through the batched path: packets are
// allocated with AllocBatch and injected with InjectBatch in bursts of
// the given size (short bursts under transient pool pressure are fine,
// as with a real burst NIC driver). burst<=1 falls back to the scalar
// runTraffic so a burst=1 run truly pins the scalar injection path.
func runTrafficBurst(t *testing.T, s *Server, n, burst int, mk func(i int) packet.BuildSpec) []*packet.Packet {
	t.Helper()
	if burst <= 1 {
		return runTraffic(t, s, n, mk)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	var outputs []*packet.Packet
	var mu sync.Mutex
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := range s.Output() {
			mu.Lock()
			outputs = append(outputs, p)
			mu.Unlock()
		}
	}()
	batch := make([]*packet.Packet, burst)
	for i := 0; i < n; {
		want := burst
		if n-i < want {
			want = n - i
		}
		got := s.Pool().AllocBatch(batch[:want])
		for got == 0 {
			runtime.Gosched()
			got = s.Pool().AllocBatch(batch[:want])
		}
		for j := 0; j < got; j++ {
			packet.BuildInto(batch[j], mk(i+j))
		}
		if acc := s.InjectBatch(batch[:got]); acc != got {
			t.Fatalf("InjectBatch accepted %d of %d", acc, got)
		}
		i += got
	}
	s.Stop()
	<-done
	return outputs
}

// burstRun captures one execution's observable state for differential
// comparison: final bytes per PID, drop/copy counts, and per-NF
// input-observation digests.
type burstRun struct {
	outputs map[uint64][]byte
	drops   uint64
	copies  uint64
	digests map[string]uint64
	seen    map[string]uint64
}

func runBurstChain(t *testing.T, chain []string, g graph.Node, n, burst int, fusion FusionMode) *burstRun {
	t.Helper()
	obs := map[string]*obsNF{}
	instances := map[graph.NF]nf.NF{}
	for _, name := range chain {
		oc := &obsNF{inner: mkBurstNF(t, name)}
		obs[name] = oc
		if burst > 1 {
			instances[nfn(name, 0)] = &obsBatchNF{oc}
		} else {
			instances[nfn(name, 0)] = oc
		}
	}
	s := New(Config{PoolSize: 1024, Mergers: 2, Burst: burst, Fusion: fusion})
	if err := s.AddGraphInstances(1, g, instances); err != nil {
		t.Fatal(err)
	}
	outs := runTrafficBurst(t, s, n, burst, burstSpec)
	r := &burstRun{
		outputs: map[uint64][]byte{},
		digests: map[string]uint64{},
		seen:    map[string]uint64{},
	}
	for _, p := range outs {
		r.outputs[p.Meta.PID] = append([]byte(nil), p.Bytes()...)
		p.Free()
	}
	st := s.Stats()
	r.drops, r.copies = st.Drops, st.Copies
	for name, oc := range obs {
		r.digests[name] = oc.digest
		r.seen[name] = oc.seen
	}
	if inUse := s.Pool().InUse(); inUse != 0 {
		t.Errorf("chain %v burst=%d leaked %d pool packets", chain, burst, inUse)
	}
	return r
}

// diffBurstRuns returns human-readable violations between a scalar and
// a batched run (empty = observationally identical).
func diffBurstRuns(scalar, burst *burstRun) []string {
	var out []string
	if scalar.drops != burst.drops {
		out = append(out, fmt.Sprintf("drops: burst=1 %d, burst=32 %d", scalar.drops, burst.drops))
	}
	if scalar.copies != burst.copies {
		out = append(out, fmt.Sprintf("copies: burst=1 %d, burst=32 %d", scalar.copies, burst.copies))
	}
	if len(scalar.outputs) != len(burst.outputs) {
		out = append(out, fmt.Sprintf("output count: burst=1 %d, burst=32 %d",
			len(scalar.outputs), len(burst.outputs)))
	}
	for pid, sb := range scalar.outputs {
		bb, ok := burst.outputs[pid]
		if !ok {
			out = append(out, fmt.Sprintf("pid %d missing from burst=32 output", pid))
			continue
		}
		if string(sb) != string(bb) {
			out = append(out, fmt.Sprintf("pid %d bytes differ (%d vs %d bytes)", pid, len(sb), len(bb)))
		}
	}
	for name, sd := range scalar.digests {
		if bd := burst.digests[name]; bd != sd {
			out = append(out, fmt.Sprintf("NF %s observation digest differs (%#x vs %#x)", name, sd, bd))
		}
	}
	for name, sc := range scalar.seen {
		if bc := burst.seen[name]; bc != sc {
			out = append(out, fmt.Sprintf("NF %s saw %d packets at burst=1, %d at burst=32", name, sc, bc))
		}
	}
	return out
}

// TestBurstDifferentialExampleGraphs is the differential correctness
// harness of the burst fast path: every example chain — compiled both
// sequentially and with NFP parallelization — is replayed with
// identical traffic at burst=1 (scalar NF implementations, scalar
// inject) and burst=32 (batched alloc/classify/process/merge, batched
// NF implementations). The two executions must be observationally
// identical: same per-NF observation digests and packet counts, same
// final output bytes per PID, same drop intent, same copy count.
func TestBurstDifferentialExampleGraphs(t *testing.T) {
	chains := [][]string{
		{nfa.NFIDS, nfa.NFMonitor, nfa.NFLB},
		{nfa.NFVPN, nfa.NFMonitor, nfa.NFFirewall, nfa.NFLB},
		{nfa.NFMonitor, nfa.NFFirewall},
	}
	n := 400
	if testing.Short() {
		n = 96
	}
	for _, chain := range chains {
		for _, mode := range []struct {
			name string
			opts core.Options
		}{
			{"sequential", core.Options{NoParallelism: true}},
			{"parallel", core.Options{}},
		} {
			res, err := core.Compile(policy.FromChain(chain...), nil, mode.opts)
			if err != nil {
				t.Fatalf("chain %v %s compile: %v", chain, mode.name, err)
			}
			scalar := runBurstChain(t, chain, res.Graph, n, 1, FusionOn)
			burst := runBurstChain(t, chain, res.Graph, n, 32, FusionOn)
			if diffs := diffBurstRuns(scalar, burst); len(diffs) != 0 {
				t.Errorf("chain %v (%s graph %v): burst=32 NOT equivalent to burst=1:\n  %v",
					chain, mode.name, res.Graph, diffs)
			}
		}
	}
}

// TestBurstOneMatchesDefaultScalarBehavior pins the compatibility
// claim: Burst=1 must reproduce the pre-burst dataplane exactly,
// including per-packet telemetry cardinality (this is asserted by
// TestTelemetryCountersBalance, which runs at Burst: 1).
func TestBurstOneMatchesDefaultScalarBehavior(t *testing.T) {
	s := New(Config{PoolSize: 64, Burst: 0})
	if got := s.cfg.Burst; got != DefaultBurst {
		t.Errorf("zero Burst defaulted to %d, want DefaultBurst=%d", got, DefaultBurst)
	}
	s1 := New(Config{PoolSize: 64, Burst: -3})
	if got := s1.cfg.Burst; got != 1 {
		t.Errorf("negative Burst clamped to %d, want 1", got)
	}
}

// TestTelemetryBalanceUnderBurst is the batched counterpart of
// TestTelemetryCountersBalance: with Burst=32 and batched injection the
// amortized counters must still tell one consistent story — injections
// equal outputs plus drops, every NF's in/out/drops balance, the
// service-time histograms record one sample per burst (not per packet,
// not fewer than the burst size allows), and the mempool returns to
// zero in-use through the batched alloc/free path.
func TestTelemetryBalanceUnderBurst(t *testing.T) {
	chain := []string{nfa.NFMonitor, nfa.NFFirewall, nfa.NFLB}
	res, err := core.Compile(policy.FromChain(chain...), nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	instances := map[graph.NF]nf.NF{}
	for _, name := range chain {
		instances[nfn(name, 0)] = mkBurstNF(t, name)
	}
	const n = 320
	s := New(Config{PoolSize: 1024, Burst: 32})
	if err := s.AddGraphInstances(1, res.Graph, instances); err != nil {
		t.Fatal(err)
	}
	outs := runTrafficBurst(t, s, n, 32, burstSpec)
	for _, p := range outs {
		p.Free()
	}

	snap := s.Telemetry().Snapshot()
	injected := snap.CounterValue("nfp_injected_total")
	outputs := snap.CounterValue("nfp_outputs_total")
	drops := snap.CounterValue("nfp_drops_total")
	if injected != n {
		t.Errorf("injected = %d, want %d", injected, n)
	}
	if injected != outputs+drops {
		t.Errorf("injected %d != outputs %d + drops %d", injected, outputs, drops)
	}
	if drops == 0 {
		t.Error("no drops — the firewall's deny path was not exercised")
	}
	if uint64(len(outs)) != outputs {
		t.Errorf("channel outputs %d != counter %d", len(outs), outputs)
	}
	if d := snap.SumCounters("nfp_classifier_dispatch_total"); d != n {
		t.Errorf("dispatch sum = %d, want %d", d, n)
	}

	// Per-NF conservation under bursts: in = out + drops for every NF.
	ins := map[string]uint64{}
	for _, name := range chain {
		in := snap.CounterValue("nfp_nf_packets_in_total", telemetry.L("nf", name), telemetry.L("mid", "1"))
		out := snap.CounterValue("nfp_nf_packets_out_total", telemetry.L("nf", name), telemetry.L("mid", "1"))
		nfDrops := snap.CounterValue("nfp_nf_drops_total", telemetry.L("nf", name), telemetry.L("mid", "1"))
		if in != out+nfDrops {
			t.Errorf("nf %s in %d != out %d + drops %d", name, in, out, nfDrops)
		}
		ins[name] = in
	}

	// Amortized service-time sampling: one histogram record per burst,
	// so for each NF the sample count is between ceil(in/32) and in.
	for _, h := range snap.Histograms {
		if h.Name != "nfp_nf_service_time_ns" {
			continue
		}
		in := ins[h.Labels["nf"]]
		if h.Count > in || h.Count*32 < in {
			t.Errorf("service-time histogram %v count = %d outside [%d/32, %d]",
				h.Labels, h.Count, in, in)
		}
	}

	// Mempool balance through the batched alloc path.
	allocs := snap.CounterValue("nfp_mempool_allocs_total")
	frees := snap.CounterValue("nfp_mempool_frees_total")
	if allocs == 0 || allocs != frees {
		t.Errorf("mempool allocs/frees = %d/%d", allocs, frees)
	}
	if inUse := snap.GaugeValue("nfp_mempool_in_use"); inUse != 0 {
		t.Errorf("mempool in_use = %d after run", inUse)
	}
}
