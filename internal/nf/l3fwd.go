package nf

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"

	"nfp/internal/lpm"
	"nfp/internal/nfa"
	"nfp/internal/packet"
)

// DefaultRouteCount is the evaluation's LPM table size ("a longest
// prefix matching table with 1000 entries", §6.1).
const DefaultRouteCount = 1000

// L3Forwarder looks up the next hop of every packet in an LPM table.
// It is the simplest evaluation NF ("simply performs one table look
// up") and the unit of Figure 7's sequential chains.
type L3Forwarder struct {
	table   *lpm.Table
	lookups uint64
	misses  uint64
}

// NewL3Forwarder builds a forwarder with n synthetic routes plus a
// default route, deterministically seeded so all instances share the
// same table (as chained identical NFs in the paper do).
func NewL3Forwarder(n int) (*L3Forwarder, error) {
	if n < 0 {
		return nil, fmt.Errorf("l3fwd: negative route count %d", n)
	}
	t := lpm.New()
	if err := t.Insert(netip.MustParsePrefix("0.0.0.0/0"), 0); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(0x13f4d))
	for i := 0; i < n; i++ {
		raw := rng.Uint32()
		addr := netip.AddrFrom4([4]byte{byte(raw >> 24), byte(raw >> 16), byte(raw >> 8), byte(raw)})
		bits := 8 + rng.Intn(17) // /8../24
		pfx, err := addr.Prefix(bits)
		if err != nil {
			return nil, err
		}
		if err := t.Insert(pfx, 1+i%64); err != nil {
			return nil, err
		}
	}
	return &L3Forwarder{table: t}, nil
}

// Name implements NF.
func (f *L3Forwarder) Name() string { return nfa.NFL3Fwd }

// Profile implements NF.
func (f *L3Forwarder) Profile() nfa.Profile { return profileFor(nfa.NFL3Fwd) }

// Process is a one-packet ProcessBatch.
func (f *L3Forwarder) Process(p *packet.Packet) Verdict {
	pkts, verdicts := [1]*packet.Packet{p}, [1]Verdict{}
	f.ProcessBatch(pkts[:], verdicts[:])
	return verdicts[0]
}

// ProcessBatch implements BatchProcessor: it looks up every packet's
// destination address. The chosen next hop is recorded internally; the
// packets are not modified (profile: read DIP). One pass over the burst
// with the last destination's LPM result cached, so runs of
// same-destination packets (the common case inside a burst) cost one
// table walk.
func (f *L3Forwarder) ProcessBatch(pkts []*packet.Packet, verdicts []Verdict) {
	var lastAddr uint32
	var lastOK, haveLast bool
	for i, p := range pkts {
		verdicts[i] = Pass
		if err := p.Parse(); err != nil {
			f.misses++
			continue
		}
		b := p.FieldBytes(packet.FieldDstIP)
		addr := binary.BigEndian.Uint32(b)
		if !haveLast || addr != lastAddr {
			_, lastOK = f.table.LookupUint(addr)
			lastAddr, haveLast = addr, true
		}
		if !lastOK {
			f.misses++
		}
		f.lookups++
	}
}

// Lookups returns the number of successful table consultations.
func (f *L3Forwarder) Lookups() uint64 { return f.lookups }
