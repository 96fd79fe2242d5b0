package nf

import (
	"fmt"
	"net/netip"

	"nfp/internal/nfa"
	"nfp/internal/packet"
)

// DefaultBackendCount is the load balancer's backend pool size.
const DefaultBackendCount = 16

// LoadBalancer implements the "commonly used ECMP mechanism in data
// centers that hashes the 5-tuple of the packet to balance the load"
// (§6.1). Like the Ananta/Duet muxes it models, it rewrites the
// destination address to the chosen backend and the source address to
// its own VIP (source NAT), matching the Table 2 profile (R/W SIP,
// R/W DIP, R SPORT, R DPORT).
type LoadBalancer struct {
	vip      [4]byte
	backends [][4]byte
	counts   []uint64
}

// NewLoadBalancer creates an ECMP load balancer with n backends at
// 10.200.0.1..n and VIP 10.100.0.1.
func NewLoadBalancer(n int) (*LoadBalancer, error) {
	if n <= 0 {
		return nil, fmt.Errorf("lb: need at least one backend, got %d", n)
	}
	lb := &LoadBalancer{
		vip:    [4]byte{10, 100, 0, 1},
		counts: make([]uint64, n),
	}
	for i := 0; i < n; i++ {
		lb.backends = append(lb.backends, [4]byte{10, 200, byte(i >> 8), byte(i + 1)})
	}
	return lb, nil
}

// Name implements NF.
func (lb *LoadBalancer) Name() string { return nfa.NFLB }

// Process is a one-packet ProcessBatch.
func (lb *LoadBalancer) Process(p *packet.Packet) Verdict {
	pkts, verdicts := [1]*packet.Packet{p}, [1]Verdict{}
	lb.ProcessBatch(pkts[:], verdicts[:])
	return verdicts[0]
}

// ProcessBatch implements BatchProcessor: it hashes each packet's
// 5-tuple and rewrites its src/dst addresses. The hash runs on the
// packet-carried packed key, so no address widening happens per packet,
// and it is computed once per run of identical keys; the address rewrite
// happens per packet (each packet has its own buffer), patching the IP
// and TCP/UDP checksums for the words it changed (packet.SetTuple).
// The burst's header lines are fetched in one pass first, so frames
// built on another core miss together rather than one per iteration.
func (lb *LoadBalancer) ProcessBatch(pkts []*packet.Packet, verdicts []Verdict) {
	packet.WarmHeaders(pkts)
	var lastKey packet.FlowKey
	lastIdx := -1
	for i, p := range pkts {
		verdicts[i] = Pass
		fk, err := p.FlowKey()
		if err != nil {
			continue
		}
		if lastIdx < 0 || fk != lastKey {
			lastIdx = int(fk.Hash() % uint64(len(lb.backends)))
			lastKey = fk
		}
		lb.counts[lastIdx]++
		fk.Src, fk.Dst = lb.vip, lb.backends[lastIdx]
		p.SetTuple(fk)
	}
}

// Backend returns the backend a flow key maps to (for tests and for
// verifying ECMP stability).
func (lb *LoadBalancer) Backend(k packet.FlowKey) netip.Addr {
	return netip.AddrFrom4(lb.backends[int(k.Hash()%uint64(len(lb.backends)))])
}

// Counts returns per-backend packet counts.
func (lb *LoadBalancer) Counts() []uint64 {
	out := make([]uint64, len(lb.counts))
	copy(out, lb.counts)
	return out
}
