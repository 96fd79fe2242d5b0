package nf

import (
	"encoding/binary"
	"fmt"
	"slices"

	"nfp/internal/packet"
)

// StatefulNF is implemented by NFs whose internal state can be
// exported and imported. It is the §7 scaling primitive: "we could
// simply create a new instance on a VM or container, migrate some
// states [OpenNF, Split/Merge], and modify the forwarding table to
// redirect some flows to the new instance."
//
// ImportState merges the serialized state into the receiver (additive
// for counters, union for tables), so partial migrations compose.
type StatefulNF interface {
	NF
	ExportState() ([]byte, error)
	ImportState([]byte) error
}

// flowState is what a table-backed NF gives the one state codec: its
// flows as records, and a way to take one in. Every such NF's
// ExportState and ImportState are exportFlows and importFlows.
type flowState interface {
	NF
	// rangeFlows calls fn for every flow the NF holds, in any order.
	rangeFlows(fn func(flowRecord))
	// mergeFlow folds one exported flow into the NF's own state.
	mergeFlow(flowRecord) error
}

// flowRecord is one flow's exported state: its table key and the (at
// most two) words of its value.
type flowRecord struct {
	key packet.FlowKey
	val [2]uint64
}

// Serialized form: a header line naming the format and the NF type, the
// record count (uint32), then fixed-size records sorted by key — the
// same state always serializes to the same bytes, whatever order the
// table happens to hold it in. Integers are big-endian.
const flowRecLen = 13 + 16 // key, two value words

func stateHeader(n NF) string { return "nfpflows1 " + n.Name() + "\n" }

// exportFlows serializes every flow n holds.
func exportFlows(n flowState) ([]byte, error) {
	var recs []flowRecord
	n.rangeFlows(func(r flowRecord) { recs = append(recs, r) })
	slices.SortFunc(recs, func(a, b flowRecord) int { return a.key.Compare(b.key) })

	hdr := stateHeader(n)
	out := make([]byte, 0, len(hdr)+4+len(recs)*flowRecLen)
	out = append(out, hdr...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(recs)))
	for _, r := range recs {
		out = append(out, r.key.Src[:]...)
		out = append(out, r.key.Dst[:]...)
		out = binary.BigEndian.AppendUint16(out, r.key.SrcPort)
		out = binary.BigEndian.AppendUint16(out, r.key.DstPort)
		out = append(out, r.key.Proto)
		out = binary.BigEndian.AppendUint64(out, r.val[0])
		out = binary.BigEndian.AppendUint64(out, r.val[1])
	}
	return out, nil
}

// importFlows merges flows serialized by exportFlows from an NF of the
// same type into n.
func importFlows(n flowState, b []byte) error {
	name, hdr := n.Name(), stateHeader(n)
	if len(b) < len(hdr)+4 || string(b[:len(hdr)]) != hdr {
		return fmt.Errorf("%s: import: not %s state", name, name)
	}
	count := int(binary.BigEndian.Uint32(b[len(hdr):]))
	b = b[len(hdr)+4:]
	if len(b) != count*flowRecLen {
		return fmt.Errorf("%s: import: %d bytes for %d flows, want %d", name, len(b), count, count*flowRecLen)
	}
	for ; len(b) > 0; b = b[flowRecLen:] {
		r := flowRecord{
			key: packet.FlowKey{
				Src: [4]byte(b[0:4]), Dst: [4]byte(b[4:8]),
				SrcPort: binary.BigEndian.Uint16(b[8:10]), DstPort: binary.BigEndian.Uint16(b[10:12]),
				Proto: b[12],
			},
			val: [2]uint64{binary.BigEndian.Uint64(b[13:21]), binary.BigEndian.Uint64(b[21:29])},
		}
		if err := n.mergeFlow(r); err != nil {
			return fmt.Errorf("%s: import: %w", name, err)
		}
	}
	return nil
}

// countersOut and FlowStats.add are the record form of a FlowStats
// table (monitor, gateway): counters merge additively, so a migrated
// instance continues exactly where the source left off.
func countersOut(fn func(flowRecord)) func(packet.FlowKey, *FlowStats) bool {
	return func(k packet.FlowKey, st *FlowStats) bool {
		fn(flowRecord{key: k, val: [2]uint64{st.Packets, st.Bytes}})
		return true
	}
}

func (st *FlowStats) add(r flowRecord) {
	st.Packets += r.val[0]
	st.Bytes += r.val[1]
}

// ExportState implements StatefulNF: the full per-flow counter table.
func (m *Monitor) ExportState() ([]byte, error) { return exportFlows(m) }

// ImportState implements StatefulNF.
func (m *Monitor) ImportState(b []byte) error { return importFlows(m, b) }

func (m *Monitor) rangeFlows(fn func(flowRecord)) { m.counters.Range(countersOut(fn)) }

func (m *Monitor) mergeFlow(r flowRecord) error {
	st, _ := m.counters.Insert(r.key)
	st.add(r)
	m.total.add(r)
	return nil
}

// ExportState implements StatefulNF: the session table.
func (g *Gateway) ExportState() ([]byte, error) { return exportFlows(g) }

// ImportState implements StatefulNF.
func (g *Gateway) ImportState(b []byte) error { return importFlows(g, b) }

func (g *Gateway) rangeFlows(fn func(flowRecord)) { g.sessions.Range(countersOut(fn)) }

func (g *Gateway) mergeFlow(r flowRecord) error {
	s, _ := g.sessions.Insert(r.key)
	s.add(r)
	g.packets += r.val[0]
	return nil
}

// ExportState implements StatefulNF: the translation table, each
// internal flow with its external port.
func (n *NAT) ExportState() ([]byte, error) { return exportFlows(n) }

// ImportState implements StatefulNF: bindings union in; existing
// bindings win conflicts (the source's traffic already depends on
// them).
func (n *NAT) ImportState(b []byte) error { return importFlows(n, b) }

func (n *NAT) rangeFlows(fn func(flowRecord)) {
	n.forward.Range(func(k packet.FlowKey, ext *uint16) bool {
		fn(flowRecord{key: k, val: [2]uint64{uint64(*ext)}})
		return true
	})
}

// mergeFlow binds the flow to the external port it had at the source —
// replies still in flight arrive there — or, when this instance already
// gave that port to another flow, to the next free one.
func (n *NAT) mergeFlow(r flowRecord) error {
	if n.forward.Get(r.key) != nil {
		return nil
	}
	port := r.val[0]
	if port < natPortBase || port > 1<<16-1 {
		return fmt.Errorf("external port %d outside %d-65535", port, natPortBase)
	}
	if len(n.free) == 0 {
		return fmt.Errorf("port space exhausted")
	}
	if n.reverse[port-natPortBase].bound {
		port = uint64(n.free[len(n.free)-1])
	}
	ext, _ := n.forward.Insert(r.key)
	if ext == nil {
		return fmt.Errorf("binding table full at %d flows", n.forward.Len())
	}
	*ext = uint16(port)
	n.bind(r.key, *ext)
	return nil
}

// Migrate transfers state from src to dst; both must be the same NF
// type implementing StatefulNF.
func Migrate(src, dst NF) error {
	s, ok := src.(StatefulNF)
	if !ok {
		return fmt.Errorf("nf: %s does not export state", src.Name())
	}
	d, ok := dst.(StatefulNF)
	if !ok {
		return fmt.Errorf("nf: %s does not import state", dst.Name())
	}
	if src.Name() != dst.Name() {
		return fmt.Errorf("nf: cannot migrate %s state into %s", src.Name(), dst.Name())
	}
	b, err := s.ExportState()
	if err != nil {
		return err
	}
	return d.ImportState(b)
}
