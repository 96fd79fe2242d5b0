package nf

import (
	"fmt"
	"net/netip"
	"sync/atomic"

	"nfp/internal/flowtab"
	"nfp/internal/nfa"
	"nfp/internal/packet"
)

// natPortBase is the first external port the NAT hands out; the space
// runs from there to 65535.
const (
	natPortBase = 20000
	natPorts    = 1<<16 - natPortBase
)

// NAT implements dynamic source NAT in the style of iptables MASQUERADE
// (Table 2's NAT row: R/W on the whole 5-tuple): outbound flows get the
// NAT's external address and an allocated external port; the reverse
// mapping restores inbound packets.
//
// Both directions are flat and bounded. The forward table is a
// flowtab.Table from internal flow to external port; the reverse one an
// array indexed by external port. Free ports sit on a stack, and every
// port slot knows its place on it, so allocating a port, claiming a
// particular one (a migrated binding keeps its port) and returning one
// are all O(1) — as is finding the space exhausted. A flow the NAT has
// no room for is dropped and counted; established bindings are never
// displaced to make room (flowtab.Refuse).
type NAT struct {
	external netip.Addr
	// ext4 is external in packed form, compared against the
	// packet-carried flow key without widening.
	ext4 [4]byte
	// forward maps internal flow (packed) -> allocated external port.
	forward *flowtab.Table[uint16]
	// reverse[port-natPortBase] is the binding behind an external port.
	reverse []natBinding
	// free holds the unallocated ports; the next one out is the last.
	free []uint16
	// refused counts flows dropped for want of a port (the table's own
	// refusals are counted by the table); read by StateStats.
	refused atomic.Uint64
}

// natBinding is one external port: the internal endpoint and protocol
// it translates back to while bound, its index in NAT.free while not.
type natBinding struct {
	addr    [4]byte
	port    uint16
	freeIdx uint16
	proto   uint8
	bound   bool
}

// NewNAT creates a NAT with external address 203.0.113.1 and an
// ephemeral port range starting at 20000.
func NewNAT() (*NAT, error) {
	ext := netip.MustParseAddr("203.0.113.1")
	n := &NAT{
		external: ext,
		ext4:     ext.As4(),
		forward:  flowtab.New[uint16](flowtab.Ceiling, flowtab.Refuse),
		reverse:  make([]natBinding, natPorts),
		free:     make([]uint16, natPorts),
	}
	// Lowest port out first.
	for i := range n.free {
		port := uint16(1<<16 - 1 - i)
		n.free[i] = port
		n.reverse[port-natPortBase].freeIdx = uint16(i)
	}
	return n, nil
}

// Name implements NF.
func (n *NAT) Name() string { return nfa.NFNAT }

// Process translates outbound packets (anything not addressed to the
// external address) and reverses inbound ones.
func (n *NAT) Process(p *packet.Packet) Verdict {
	fk, err := p.FlowKey()
	if err != nil {
		return Pass
	}
	if fk.Dst == n.ext4 {
		// Inbound: restore the internal binding. A port bound by another
		// protocol's flow is as unsolicited as an unbound one.
		if fk.DstPort < natPortBase {
			return Drop
		}
		b := &n.reverse[fk.DstPort-natPortBase]
		if !b.bound || b.proto != fk.Proto {
			return Drop
		}
		fk.Dst, fk.DstPort = b.addr, b.port
		p.SetTuple(fk)
		return Pass
	}
	// Outbound: reuse the flow's binding, or bind the next free port.
	ext := n.forward.Get(fk)
	if ext == nil {
		if len(n.free) == 0 {
			n.refused.Add(1)
			return Drop // port space exhausted
		}
		if ext, _ = n.forward.Insert(fk); ext == nil {
			return Drop // binding table at its ceiling
		}
		*ext = n.free[len(n.free)-1]
		n.bind(fk, *ext)
	}
	fk.Src, fk.SrcPort = n.ext4, *ext
	p.SetTuple(fk)
	return Pass
}

// ProcessBatch implements BatchProcessor: Process per packet, after
// fetching the burst's header lines in one pass (packet.WarmHeaders),
// so frames built on another core miss together rather than one per
// rewrite.
func (n *NAT) ProcessBatch(pkts []*packet.Packet, verdicts []Verdict) {
	packet.WarmHeaders(pkts)
	for i, p := range pkts {
		verdicts[i] = n.Process(p)
	}
}

// bind takes the free port off the stack — wherever on it the port is:
// the last port fills its place — and points it at fk's source.
func (n *NAT) bind(fk packet.FlowKey, port uint16) {
	b := &n.reverse[port-natPortBase]
	last := n.free[len(n.free)-1]
	n.free[b.freeIdx] = last
	n.reverse[last-natPortBase].freeIdx = b.freeIdx
	n.free = n.free[:len(n.free)-1]
	*b = natBinding{addr: fk.Src, port: fk.SrcPort, proto: fk.Proto, bound: true}
}

// Bindings returns the number of active translations.
func (n *NAT) Bindings() int { return n.forward.Len() }

// External returns the NAT's public address.
func (n *NAT) External() netip.Addr { return n.external }

// StateStats reports the binding table's occupancy and the flows
// refused for want of a table slot or a port.
func (n *NAT) StateStats() flowtab.Stats {
	st := n.forward.Stats()
	st.Refusals += n.refused.Load()
	return st
}

func (n *NAT) String() string {
	return fmt.Sprintf("NAT{ext=%s, bindings=%d}", n.external, n.forward.Len())
}
