// Package sim is the deterministic analytic performance model used to
// regenerate the paper's figures. The live dataplane in this repository
// runs real goroutines, but the host it runs on (often a single core)
// cannot exhibit the wall-clock effects of the paper's 20-core testbed;
// this model computes the latency and throughput each platform would
// show, from first principles:
//
//   - pipelining latency = fixed I/O + per-hop delivery + NF costs,
//     with parallel stages contributing the maximum of their branches
//     plus copy and merge costs (§2.1, §6.2);
//   - the OpenNetVM baseline serializes every hop through a
//     centralized switch whose queueing penalty grows with chain
//     length (§6.2.1);
//   - throughput is the bottleneck stage's service rate, capped at
//     line rate (§6.2.1, Table 4);
//   - run-to-completion consolidates the chain into one function call,
//     paying I/O once (§7, Table 4).
//
// Constants are calibrated against Table 4 and Figure 7 (see
// EXPERIMENTS.md); every experiment reports model output next to the
// paper's numbers so the deviation is visible.
package sim

import (
	"fmt"

	"nfp/internal/graph"
	"nfp/internal/nfa"
	"nfp/internal/packet"
)

// NFCost models one NF type's contribution.
type NFCost struct {
	// LatencyUS is the per-packet latency cost in µs (pipeline
	// resident time: batching, wakeup, processing) at zero payload.
	LatencyUS float64
	// PerKBUS adds latency per KB of payload (VPN encryption, IDS
	// scanning).
	PerKBUS float64
	// ServiceUS is the busy time per packet that bounds the NF's
	// throughput on a dedicated core.
	ServiceUS float64
}

// Latency returns the NF's latency cost for a payload size.
func (c NFCost) Latency(payloadBytes int) float64 {
	return c.LatencyUS + c.PerKBUS*float64(payloadBytes)/1024
}

// Params is the full model parameter set.
type Params struct {
	// IOUS is the fixed generator↔server round-trip overhead (µs).
	IOUS float64
	// HopUS is NFP's distributed per-hop delivery latency.
	HopUS float64
	// SwitchHopUS is the centralized switch's per-hop latency.
	SwitchHopUS float64
	// SwitchQueue grows the switch hop cost with chain length n:
	// effective hop = SwitchHopUS × (1 + SwitchQueue×(n−1)).
	SwitchQueue float64
	// CopyHeaderUS / CopyFullPerKBUS are packet copy latencies.
	CopyHeaderUS    float64
	CopyFullPerKBUS float64
	// MergePerTailUS is the merge latency per extra collected tail:
	// merge cost = MergePerTailUS × (tails−1).
	MergePerTailUS float64
	// HopServiceUS is the per-delivery busy time of an NFP runtime.
	HopServiceUS float64
	// SwitchOpServiceUS is the per-forwarding busy time of the
	// centralized switch (its throughput bottleneck).
	SwitchOpServiceUS float64
	// MergeItemServiceUS is a merger instance's busy time per
	// collected packet copy.
	MergeItemServiceUS float64
	// ClassifyServiceUS is the classifier's busy time per packet.
	ClassifyServiceUS float64
	// RTCIOUS is the run-to-completion fixed I/O latency.
	RTCIOUS float64
	// RTCPerPacketUS is RTC's per-packet framework busy time.
	RTCPerPacketUS float64
	// NF maps NF type names to their costs.
	NF map[string]NFCost
}

// DefaultParams returns the Table 4 / Figure 7 calibration.
func DefaultParams() Params {
	return Params{
		IOUS:               16.3,
		HopUS:              3.0,
		SwitchHopUS:        2.6,
		SwitchQueue:        0.7,
		CopyHeaderUS:       1.0,
		CopyFullPerKBUS:    1.5,
		MergePerTailUS:     4.0,
		HopServiceUS:       0.035,
		SwitchOpServiceUS:  0.048,  // ONVM switch: ~10.4 Mpps at 1 NF, degrading with length
		MergeItemServiceUS: 0.0467, // 1 merger, 2 tails → 10.7 Mpps (§6.3.3)
		ClassifyServiceUS:  0.04,
		RTCIOUS:            11.25,
		RTCPerPacketUS:     0.005,
		NF:                 DefaultNFCosts(),
	}
}

// MacroParams returns the calibration for the real-world chain
// experiment (Figure 13). The paper's Fig 13 per-NF latencies are an
// order of magnitude above its Table 4 microbenchmark values (the
// chains run loaded, with deep batching); this set reproduces the
// reported totals: north-south 241→210 µs, west-east 220→141 µs.
func MacroParams() Params {
	p := DefaultParams()
	p.SwitchQueue = 0
	p.NF = map[string]NFCost{
		nfa.NFVPN:      {LatencyUS: 70, ServiceUS: 0.4},
		nfa.NFMonitor:  {LatencyUS: 55, ServiceUS: 0.09},
		nfa.NFFirewall: {LatencyUS: 50, ServiceUS: 0.057},
		nfa.NFLB:       {LatencyUS: 60, ServiceUS: 0.07},
		nfa.NFIDS:      {LatencyUS: 60, ServiceUS: 0.35},
	}
	return p
}

// DefaultNFCosts returns per-NF costs consistent with Figure 8's
// ordering (Forwarder < LB < Firewall < Monitor < VPN < IDS) and
// Table 4's firewall chains.
func DefaultNFCosts() map[string]NFCost {
	return map[string]NFCost{
		nfa.NFL3Fwd:    {LatencyUS: 1.5, ServiceUS: 0.03},
		nfa.NFLB:       {LatencyUS: 3.0, ServiceUS: 0.07},
		nfa.NFFirewall: {LatencyUS: 3.5, ServiceUS: 0.057},
		nfa.NFMonitor:  {LatencyUS: 5.0, ServiceUS: 0.09},
		nfa.NFVPN:      {LatencyUS: 55, PerKBUS: 45, ServiceUS: 0.4},
		nfa.NFIDS:      {LatencyUS: 48, PerKBUS: 35, ServiceUS: 0.35},
		nfa.NFNIDS:     {LatencyUS: 48, PerKBUS: 35, ServiceUS: 0.35},
		nfa.NFNAT:      {LatencyUS: 3.2, ServiceUS: 0.08},
		nfa.NFGateway:  {LatencyUS: 2.0, ServiceUS: 0.06},
		nfa.NFCaching:  {LatencyUS: 4.0, ServiceUS: 0.1},
	}
}

// Per-cycle costs of the Figure 9 synthetic NF, calibrated so that a
// sequential pair at 3000 cycles sits at ≈330 µs (Fig 9a) while the
// processing rate decays toward ≈1 Mpps (Fig 9b). The latency
// coefficient exceeds raw CPU-cycle time because the paper measures
// under load, where service time is amplified by queueing.
const (
	cycleLatencyUS = 0.05
	cycleServiceUS = 0.00033
)

// WithSyntheticCycles installs the Figure 9 synthetic NF: a firewall
// that burns the given busy-loop cycle count per packet on top of the
// firewall's base cost.
func (p Params) WithSyntheticCycles(cycles int) Params {
	nf := make(map[string]NFCost, len(p.NF))
	for k, v := range p.NF {
		nf[k] = v
	}
	base := nf[nfa.NFFirewall]
	nf[nfa.NFSynthetic] = NFCost{
		LatencyUS: base.LatencyUS + cycleLatencyUS*float64(cycles),
		ServiceUS: base.ServiceUS + cycleServiceUS*float64(cycles),
	}
	p.NF = nf
	return p
}

// cost resolves an NF's cost, defaulting to the firewall's.
func (p Params) cost(name string) NFCost {
	if c, ok := p.NF[name]; ok {
		return c
	}
	return p.NF[nfa.NFFirewall]
}

// payloadBytes returns the application bytes of a frame size.
func payloadBytes(frameSize int) int {
	pl := frameSize - packet.EthHeaderLen - packet.IPv4HeaderLen - packet.TCPHeaderLen
	if pl < 0 {
		return 0
	}
	return pl
}

// --- Latency ---

// LatencyGraph returns the NFP end-to-end latency (µs) of a service
// graph for the given frame size.
func (p Params) LatencyGraph(g graph.Node, frameSize int) float64 {
	return p.IOUS + p.nodeLatency(g, frameSize)
}

func (p Params) nodeLatency(n graph.Node, frameSize int) float64 {
	pl := payloadBytes(frameSize)
	switch v := n.(type) {
	case graph.NF:
		return p.HopUS + p.cost(v.Name).Latency(pl)
	case graph.Seq:
		total := 0.0
		for _, it := range v.Items {
			total += p.nodeLatency(it, frameSize)
		}
		return total
	case graph.Par:
		// Copies are taken up front; branches run simultaneously; the
		// merger collects one tail per branch.
		copies := 0.0
		for gi := 1; gi < len(v.NormGroups()); gi++ {
			if len(v.FullCopy) > gi && v.FullCopy[gi] {
				copies += p.CopyHeaderUS + p.CopyFullPerKBUS*float64(frameSize)/1024
			} else {
				copies += p.CopyHeaderUS
			}
		}
		max := 0.0
		for _, b := range v.Branches {
			if l := p.nodeLatency(b, frameSize); l > max {
				max = l
			}
		}
		tails := float64(len(v.Branches))
		return copies + max + p.MergePerTailUS*(tails-1)
	}
	panic(fmt.Sprintf("sim: unknown node type %T", n))
}

// LatencySeqNFP returns NFP's latency running a chain sequentially
// (its Figure 7 compatibility mode).
func (p Params) LatencySeqNFP(chain []string, frameSize int) float64 {
	items := make([]graph.Node, len(chain))
	for i, n := range chain {
		items[i] = graph.NF{Name: n, Instance: i}
	}
	if len(items) == 1 {
		return p.LatencyGraph(items[0], frameSize)
	}
	return p.LatencyGraph(graph.Seq{Items: items}, frameSize)
}

// LatencyONVM returns the centralized-switch baseline latency.
func (p Params) LatencyONVM(chain []string, frameSize int) float64 {
	n := float64(len(chain))
	hop := p.SwitchHopUS * (1 + p.SwitchQueue*(n-1))
	total := p.IOUS + (n+1)*hop
	pl := payloadBytes(frameSize)
	for _, name := range chain {
		total += p.cost(name).Latency(pl)
	}
	return total
}

// LatencyRTC returns the run-to-completion baseline latency.
func (p Params) LatencyRTC(chain []string, frameSize int) float64 {
	total := p.RTCIOUS
	pl := payloadBytes(frameSize)
	for _, name := range chain {
		total += p.cost(name).ServiceUS + p.cost(name).PerKBUS*float64(pl)/1024
	}
	return total
}

// --- Resource overhead (§6.3.1) ---

// ResourceOverhead evaluates the §6.3.1 model: with Header-Only
// Copying, a parallelism degree of d costs 64·(d−1) extra bytes per
// packet of size s, i.e. ro = 64×(d−1)/s.
func ResourceOverhead(pktSize, degree int) float64 {
	return MeanResourceOverhead(float64(pktSize), degree)
}

// MeanResourceOverhead weighs ResourceOverhead by a packet-size
// distribution's mean, reproducing the paper's ro = 0.088×(d−1) for
// the datacenter mixture (mean ≈724 B).
func MeanResourceOverhead(meanPktSize float64, degree int) float64 {
	if meanPktSize <= 0 || degree <= 1 {
		return 0
	}
	return 64 * float64(degree-1) / meanPktSize
}

// --- Throughput (Mpps) ---

// LineRatePPS returns the 10GbE line rate in packets per second for a
// frame size (adding the 20B inter-frame gap + preamble the paper's
// "Line Speed" series includes): 14.88 Mpps at 64 B.
func LineRatePPS(frameSize int) float64 {
	if frameSize < 64 {
		frameSize = 64
	}
	return 10e9 / (float64(frameSize+20) * 8)
}

// lineMpps caps a rate at 10GbE line rate for the frame size.
func lineMpps(frameSize int) float64 {
	return LineRatePPS(frameSize) / 1e6
}

// ThroughputGraph returns NFP's zero-loss rate for a service graph:
// the bottleneck of the classifier, every NF runtime (service + its
// forwarding work), and the merger pool, capped at line rate.
func (p Params) ThroughputGraph(g graph.Node, frameSize, mergers int) float64 {
	if mergers <= 0 {
		mergers = 2
	}
	bottleneck := 1 / p.ClassifyServiceUS // Mpps (µs⁻¹ = Mpps)
	graph.Walk(g, func(n graph.NF) {
		svc := p.cost(n.Name).ServiceUS +
			p.cost(n.Name).PerKBUS*float64(payloadBytes(frameSize))/1024 +
			p.HopServiceUS
		if r := 1 / svc; r < bottleneck {
			bottleneck = r
		}
	})
	// Merge items per packet = total branch tails over all joins.
	tails := 0
	var count func(graph.Node)
	count = func(n graph.Node) {
		switch v := n.(type) {
		case graph.Seq:
			for _, it := range v.Items {
				count(it)
			}
		case graph.Par:
			tails += len(v.Branches)
			for _, b := range v.Branches {
				count(b)
			}
		}
	}
	count(g)
	if tails > 0 {
		mergeRate := float64(mergers) / (p.MergeItemServiceUS * float64(tails))
		if mergeRate < bottleneck {
			bottleneck = mergeRate
		}
	}
	if lr := lineMpps(frameSize); lr < bottleneck {
		return lr
	}
	return bottleneck
}

// ThroughputSeqNFP returns NFP's rate for a sequential chain.
func (p Params) ThroughputSeqNFP(chain []string, frameSize int) float64 {
	items := make([]graph.Node, len(chain))
	for i, n := range chain {
		items[i] = graph.NF{Name: n, Instance: i}
	}
	return p.ThroughputGraph(graph.Seq{Items: items}, frameSize, 2)
}

// ThroughputONVM returns the centralized-switch baseline rate: the
// switch serializes hops+1 forwarding operations per packet.
func (p *Params) ThroughputONVM(chain []string, frameSize int) float64 {
	bottleneck := 1 / (p.SwitchOpServiceUS * float64(len(chain)+1))
	pl := payloadBytes(frameSize)
	for _, name := range chain {
		svc := p.cost(name).ServiceUS + p.cost(name).PerKBUS*float64(pl)/1024
		if r := 1 / svc; r < bottleneck {
			bottleneck = r
		}
	}
	if lr := lineMpps(frameSize); lr < bottleneck {
		return lr
	}
	return bottleneck
}

// ThroughputRTC returns the run-to-completion rate with the given
// number of chain replicas (cores).
func (p Params) ThroughputRTC(chain []string, frameSize, replicas int) float64 {
	if replicas <= 0 {
		replicas = 1
	}
	pl := payloadBytes(frameSize)
	perPkt := p.RTCPerPacketUS
	for _, name := range chain {
		perPkt += p.cost(name).ServiceUS + p.cost(name).PerKBUS*float64(pl)/1024
	}
	rate := float64(replicas) / perPkt
	if lr := lineMpps(frameSize); lr < rate {
		return lr
	}
	return rate
}
