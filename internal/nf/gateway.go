package nf

import (
	"bytes"
	"net/netip"

	"nfp/internal/flowtab"
	"nfp/internal/nfa"
	"nfp/internal/packet"
)

// Gateway models the conf/voice/media gateway of Table 2 (Cisco MGX):
// it tracks media sessions by address pair and classifies each packet
// into a session context. Per its profile it only reads the source and
// destination addresses.
//
// Sessions live in a flowtab.Table under a key holding the ordered
// address pair and nothing else; at the ceiling a new session displaces
// one that has gone quiet (flowtab.Evict).
type Gateway struct {
	sessions *flowtab.Table[FlowStats]
	packets  uint64
}

// GatewaySession is one tracked media session.
type GatewaySession struct {
	Peer    [2]netip.Addr
	Packets uint64
	Bytes   uint64
}

// NewGateway creates an empty gateway.
func NewGateway() *Gateway {
	return &Gateway{sessions: flowtab.New[FlowStats](flowtab.Ceiling, flowtab.Evict)}
}

// Name implements NF.
func (g *Gateway) Name() string { return nfa.NFGateway }

// sessionKey is the directionless key of an address pair: both
// directions of a call share a context.
func sessionKey(a, b [4]byte) packet.FlowKey {
	if bytes.Compare(b[:], a[:]) < 0 {
		a, b = b, a
	}
	return packet.FlowKey{Src: a, Dst: b}
}

// Process classifies the packet into its session.
func (g *Gateway) Process(p *packet.Packet) Verdict {
	fk, err := p.FlowKey()
	if err != nil {
		return Pass
	}
	s, _ := g.sessions.Insert(sessionKey(fk.Src, fk.Dst))
	s.Packets++
	s.Bytes += uint64(p.Len())
	g.packets++
	return Pass
}

// Sessions returns the number of tracked sessions.
func (g *Gateway) Sessions() int { return g.sessions.Len() }

// Session returns the context for an address pair, if tracked.
func (g *Gateway) Session(a, b netip.Addr) (GatewaySession, bool) {
	k := sessionKey(a.As4(), b.As4())
	s := g.sessions.Get(k)
	if s == nil {
		return GatewaySession{}, false
	}
	return GatewaySession{
		Peer:    [2]netip.Addr{netip.AddrFrom4(k.Src), netip.AddrFrom4(k.Dst)},
		Packets: s.Packets, Bytes: s.Bytes,
	}, true
}

// StateStats reports the session table's occupancy and evictions.
func (g *Gateway) StateStats() flowtab.Stats { return g.sessions.Stats() }
