package nf

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"sync"

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

// fibs holds the FIB of each route count, built on first use and never
// written again, so every forwarder, shard, restart and reload reads the
// same table.
var fibs sync.Map // int -> *lpm.Table

// NewL3Forwarder returns a forwarder over n synthetic routes plus a
// default route. The routes are deterministically seeded, and all
// instances with the same n share one table (as chained identical NFs
// in the paper do); only the counters are per instance.
func NewL3Forwarder(n int) (*L3Forwarder, error) {
	if n < 0 {
		return nil, fmt.Errorf("l3fwd: negative route count %d", n)
	}
	t, ok := fibs.Load(n)
	if !ok {
		built, err := buildFIB(n)
		if err != nil {
			return nil, err
		}
		t, _ = fibs.LoadOrStore(n, built)
	}
	return &L3Forwarder{table: t.(*lpm.Table)}, nil
}

func buildFIB(n int) (*lpm.Table, error) {
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
	return t, nil
}

// Name implements NF.
func (f *L3Forwarder) Name() string { return nfa.NFL3Fwd }

// Process is a one-packet ProcessBatch.
func (f *L3Forwarder) Process(p *packet.Packet) Verdict {
	pkts, verdicts := [1]*packet.Packet{p}, [1]Verdict{}
	f.ProcessBatch(pkts[:], verdicts[:])
	return verdicts[0]
}

// ProcessBatch implements BatchProcessor: it looks up every packet's
// destination address. The chosen next hop is recorded internally; the
// packets are not modified (profile: read DIP).
func (f *L3Forwarder) ProcessBatch(pkts []*packet.Packet, verdicts []Verdict) {
	for i, p := range pkts {
		verdicts[i] = Pass
		fk, err := p.FlowKey()
		if err != nil {
			f.misses++
			continue
		}
		if _, ok := f.table.LookupUint(binary.BigEndian.Uint32(fk.Dst[:])); !ok {
			f.misses++
		}
		f.lookups++
	}
}

// Lookups returns the number of packets whose destination was looked
// up: every parsed packet, those without a matching route included.
func (f *L3Forwarder) Lookups() uint64 { return f.lookups }
