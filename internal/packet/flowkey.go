package packet

import (
	"bytes"
	"cmp"
	"net/netip"
	"strconv"
)

// FlowKey is the program's one 5-tuple: packed 4-byte IPv4 addresses,
// host-order ports and the effective L4 protocol (after AH, if
// present). It holds no netip.Addr, so comparing, hashing and storing
// it in maps costs plain word operations — the form the classifier's
// microflow cache, shard selection and per-flow NF tables want on the
// hot path, and the form every API that takes or returns a flow uses.
//
// It is computed at most once per packet and cached on the Packet
// beside the parsed layout (see Packet.FlowKey).
//
// The blank pad makes the key 16 bytes. At 14, a copy is two
// overlapping 8-byte stores (bytes 0–7 and 6–13), and a later 4-byte
// read of Dst spans both: the CPU cannot forward it from the store
// buffer and waits for both stores to commit, which in turn waits for
// every older load — the previous packet's cache-missing lookup among
// them. flowtab.Pack, the classifier's cache probe and l3fwd each copy
// a key and then read Dst, so every flow lookup queued behind the last
// one (BenchmarkFlowTableColdHit in internal/flowtab: 150–200 ns at 14
// bytes, ≈ 50 at 16). At 16 bytes a copy is one 16-byte move and every
// field read falls inside it. == ignores blank fields;
// TestFlowKeyLayout pins the size and the offsets.
type FlowKey struct {
	Src, Dst         [4]byte
	SrcPort, DstPort uint16
	Proto            uint8
	_                [3]byte
}

// String spells the key as src:sport>dst:dport/proto, e.g.
// "10.1.2.3:4242>10.4.5.6:80/6" — the form /debug/flightrecorder prints.
func (k FlowKey) String() string {
	b := make([]byte, 0, 48)
	b = netip.AddrPortFrom(netip.AddrFrom4(k.Src), k.SrcPort).AppendTo(b)
	b = append(b, '>')
	b = netip.AddrPortFrom(netip.AddrFrom4(k.Dst), k.DstPort).AppendTo(b)
	b = append(b, '/')
	return string(strconv.AppendUint(b, uint64(k.Proto), 10))
}

// Compare orders keys by source address, destination address, source
// port, destination port and protocol, in that order, returning -1, 0
// or +1: a total order that is 0 exactly when the keys are ==. Every
// sort over flows uses it.
func (k FlowKey) Compare(o FlowKey) int {
	return cmp.Or(
		bytes.Compare(k.Src[:], o.Src[:]),
		bytes.Compare(k.Dst[:], o.Dst[:]),
		cmp.Compare(k.SrcPort, o.SrcPort),
		cmp.Compare(k.DstPort, o.DstPort),
		cmp.Compare(k.Proto, o.Proto),
	)
}

// FNV-1a constants.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Hash returns the 64-bit FNV-1a hash of the 5-tuple. The byte order
// (src, dst, sport, dport, proto — ports big-endian) and the fully
// unrolled mixing are bit-identical to the historical closure loop, so
// ECMP backend choice and shard assignment are unchanged;
// TestHashGoldenValues pins the values.
func (k FlowKey) Hash() uint64 {
	h := uint64(fnvOffset)
	h = (h ^ uint64(k.Src[0])) * fnvPrime
	h = (h ^ uint64(k.Src[1])) * fnvPrime
	h = (h ^ uint64(k.Src[2])) * fnvPrime
	h = (h ^ uint64(k.Src[3])) * fnvPrime
	h = (h ^ uint64(k.Dst[0])) * fnvPrime
	h = (h ^ uint64(k.Dst[1])) * fnvPrime
	h = (h ^ uint64(k.Dst[2])) * fnvPrime
	h = (h ^ uint64(k.Dst[3])) * fnvPrime
	h = (h ^ uint64(k.SrcPort>>8)) * fnvPrime
	h = (h ^ uint64(k.SrcPort&0xff)) * fnvPrime
	h = (h ^ uint64(k.DstPort>>8)) * fnvPrime
	h = (h ^ uint64(k.DstPort&0xff)) * fnvPrime
	h = (h ^ uint64(k.Proto)) * fnvPrime
	return h
}

// Reverse returns the key of the opposite direction.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{
		Src: k.Dst, Dst: k.Src,
		SrcPort: k.DstPort, DstPort: k.SrcPort,
		Proto: k.Proto,
	}
}

// SymmetricHash returns a direction-independent hash — A->B and B->A
// map to the same value — by combining the ordered pair of the two
// directional hashes.
func (k FlowKey) SymmetricHash() uint64 {
	a, b := k.Hash(), k.Reverse().Hash()
	if a > b {
		a, b = b, a
	}
	return a*fnvPrime ^ b
}

// FlowKey returns the packet's packed 5-tuple. Parse computes and
// caches it alongside the layout, so the classifier derives it once per
// packet and the shard dispatcher plus every downstream NF reuse the
// cached copy.
//
// The cache obeys the same sharing discipline as the layout cache: on a
// parsed packet this is a pure read, so no-copy parallel groups sharing
// a buffer never write it concurrently (the inject and copy paths warm
// it up front). Tuple setters (SetSrcIP etc.) patch the cached key in
// place, so a NAT rewrite is visible to downstream readers without a
// recompute; structural edits go through Invalidate, which clears it
// with the layout, and the editor's own next accessor re-parses both
// back to warm before the packet is shared again.
func (p *Packet) FlowKey() (FlowKey, error) {
	if p.fkeyOK {
		return p.fkey, nil
	}
	if err := p.Parse(); err != nil {
		return FlowKey{}, err
	}
	return p.fkey, nil
}
