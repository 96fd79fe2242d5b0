package nf

import (
	"net/netip"

	"nfp/internal/nfa"
	"nfp/internal/packet"
)

// viaTag is stamped over the start of proxied payloads so the origin
// can recognize forwarded traffic. Same length in and out: the proxy's
// payload rewrite never changes packet structure.
var viaTag = []byte("VIA0")

// Proxy models Table 2's proxy (Squid): it terminates client requests
// addressed to the proxy and re-originates them toward an origin
// server — rewriting the destination address and stamping the payload
// (its profile: R/W DIP, R/W payload).
type Proxy struct {
	self netip.Addr
	// self4 is self in packed form, compared against the packet-carried
	// flow key without widening.
	self4   [4]byte
	origins []netip.Addr
	proxied uint64
	direct  uint64
}

// NewProxy creates a proxy at 10.50.0.1 fronting n origin servers at
// 10.60.0.1..n.
func NewProxy(n int) (*Proxy, error) {
	if n <= 0 {
		n = 4
	}
	self := netip.MustParseAddr("10.50.0.1")
	p := &Proxy{self: self, self4: self.As4()}
	for i := 0; i < n; i++ {
		p.origins = append(p.origins, netip.AddrFrom4([4]byte{10, 60, byte(i >> 8), byte(i + 1)}))
	}
	return p, nil
}

// Name implements NF.
func (x *Proxy) Name() string { return nfa.NFProxy }

// Process forwards proxy-addressed packets to a flow-stable origin and
// stamps the payload; other traffic passes untouched.
func (x *Proxy) Process(p *packet.Packet) Verdict {
	fk, err := p.FlowKey()
	if err != nil {
		return Pass
	}
	if fk.Dst != x.self4 {
		x.direct++
		return Pass
	}
	origin := x.origins[int(fk.Hash()%uint64(len(x.origins)))]
	p.SetDstIP(origin)
	if pl := p.Payload(); len(pl) >= len(viaTag) {
		copy(pl, viaTag)
	}
	p.UpdateL4Checksum()
	x.proxied++
	return Pass
}

// Self returns the proxy's own address (traffic it terminates).
func (x *Proxy) Self() netip.Addr { return x.self }

// Origin returns the origin an incoming flow maps to.
func (x *Proxy) Origin(k packet.FlowKey) netip.Addr {
	return x.origins[int(k.Hash()%uint64(len(x.origins)))]
}

// Stats returns (proxied, passed-through) packet counts.
func (x *Proxy) Stats() (proxied, direct uint64) { return x.proxied, x.direct }
