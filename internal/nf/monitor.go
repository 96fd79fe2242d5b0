package nf

import (
	"sort"

	"nfp/internal/flow"
	"nfp/internal/nfa"
	"nfp/internal/packet"
)

// FlowStats are the per-flow counters a Monitor maintains.
type FlowStats struct {
	Packets uint64
	Bytes   uint64
}

// Monitor "maintains per-flow counters, which can be obtained by the
// operator. The counter table uses the hash value of the 5-tuple as
// the key" (§6.1). It is the canonical read-only NF of the paper's
// parallelism examples (Figure 1).
// The counter table is keyed on the packed packet.FlowKey — the
// packet-carried key classification already computed — so the hot path
// never widens to netip addresses; the exported API still speaks
// flow.Key and converts at the edge.
type Monitor struct {
	counters map[packet.FlowKey]*FlowStats
	total    FlowStats
}

// NewMonitor creates an empty monitor.
func NewMonitor() *Monitor {
	return &Monitor{counters: make(map[packet.FlowKey]*FlowStats)}
}

// Name implements NF.
func (m *Monitor) Name() string { return nfa.NFMonitor }

// Profile implements NF.
func (m *Monitor) Profile() nfa.Profile { return profileFor(nfa.NFMonitor) }

// Process is a one-packet ProcessBatch.
func (m *Monitor) Process(p *packet.Packet) Verdict {
	pkts, verdicts := [1]*packet.Packet{p}, [1]Verdict{}
	m.ProcessBatch(pkts[:], verdicts[:])
	return verdicts[0]
}

// ProcessBatch implements BatchProcessor: it counts each packet against
// its flow, with one map lookup per run of same-flow packets instead of
// one per packet.
func (m *Monitor) ProcessBatch(pkts []*packet.Packet, verdicts []Verdict) {
	var lastKey packet.FlowKey
	var lastStats *FlowStats
	for i, p := range pkts {
		verdicts[i] = Pass
		fk, err := p.FlowKey()
		if err != nil {
			continue
		}
		if lastStats == nil || fk != lastKey {
			st := m.counters[fk]
			if st == nil {
				st = &FlowStats{}
				m.counters[fk] = st
			}
			lastKey, lastStats = fk, st
		}
		lastStats.Packets++
		lastStats.Bytes += uint64(p.Len())
		m.total.Packets++
		m.total.Bytes += uint64(p.Len())
	}
}

// Flow returns the counters of one flow.
func (m *Monitor) Flow(k flow.Key) (FlowStats, bool) {
	st, ok := m.counters[k.Packed()]
	if !ok {
		return FlowStats{}, false
	}
	return *st, true
}

// Total returns the aggregate counters.
func (m *Monitor) Total() FlowStats { return m.total }

// FlowCount returns the number of tracked flows.
func (m *Monitor) FlowCount() int { return len(m.counters) }

// TopFlows returns up to n flows by packet count, descending.
func (m *Monitor) TopFlows(n int) []flow.Key {
	type kv struct {
		k  flow.Key
		st *FlowStats
	}
	all := make([]kv, 0, len(m.counters))
	for fk, st := range m.counters {
		all = append(all, kv{flow.FromPacked(fk), st})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].st.Packets != all[j].st.Packets {
			return all[i].st.Packets > all[j].st.Packets
		}
		return all[i].k.String() < all[j].k.String()
	})
	if len(all) > n {
		all = all[:n]
	}
	keys := make([]flow.Key, len(all))
	for i := range all {
		keys[i] = all[i].k
	}
	return keys
}

// FlowRecord pairs a flow key with its counters, for export.
type FlowRecord struct {
	Key   flow.Key
	Stats FlowStats
}

// Snapshot returns all tracked flows in deterministic (sorted) order,
// the input to the NetFlow exporter.
func (m *Monitor) Snapshot() []FlowRecord {
	out := make([]FlowRecord, 0, len(m.counters))
	for fk, st := range m.counters {
		out = append(out, FlowRecord{Key: flow.FromPacked(fk), Stats: *st})
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Key.String() < out[j].Key.String()
	})
	return out
}
