package nf

import (
	"sort"

	"nfp/internal/flow"
	"nfp/internal/flowtab"
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
// The counter table is a flowtab.Table keyed on the packed
// packet.FlowKey — the packet-carried key classification already
// computed — so the hot path never widens to netip addresses; the
// exported API still speaks flow.Key and converts at the edge. At the
// table's ceiling the newest flow displaces one that has gone quiet
// (flowtab.Evict): per-flow counters stop covering every flow ever
// seen, the totals do not.
type Monitor struct {
	counters *flowtab.Table[FlowStats]
	total    FlowStats
}

// NewMonitor creates an empty monitor.
func NewMonitor() *Monitor { return newMonitor(flowtab.Ceiling) }

// newMonitor is NewMonitor with the flow ceiling a test wants to reach.
func newMonitor(ceiling int) *Monitor {
	return &Monitor{counters: flowtab.New[FlowStats](ceiling, flowtab.Evict)}
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
// its flow, with one table lookup per run of same-flow packets instead
// of one per packet.
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
			lastStats, _ = m.counters.Insert(fk)
			lastKey = fk
		}
		lastStats.Packets++
		lastStats.Bytes += uint64(p.Len())
		m.total.Packets++
		m.total.Bytes += uint64(p.Len())
	}
}

// Flow returns the counters of one flow.
func (m *Monitor) Flow(k flow.Key) (FlowStats, bool) {
	st := m.counters.Get(k.Packed())
	if st == nil {
		return FlowStats{}, false
	}
	return *st, true
}

// Total returns the aggregate counters.
func (m *Monitor) Total() FlowStats { return m.total }

// FlowCount returns the number of tracked flows.
func (m *Monitor) FlowCount() int { return m.counters.Len() }

// StateStats reports the counter table's occupancy and evictions.
func (m *Monitor) StateStats() flowtab.Stats { return m.counters.Stats() }

// records returns every tracked flow, in table order.
func (m *Monitor) records() []FlowRecord {
	out := make([]FlowRecord, 0, m.counters.Len())
	m.counters.Range(func(fk packet.FlowKey, st *FlowStats) bool {
		out = append(out, FlowRecord{Key: flow.FromPacked(fk), Stats: *st})
		return true
	})
	return out
}

// TopFlows returns up to n flows by packet count, descending.
func (m *Monitor) TopFlows(n int) []flow.Key {
	all := m.records()
	sort.Slice(all, func(i, j int) bool {
		if all[i].Stats.Packets != all[j].Stats.Packets {
			return all[i].Stats.Packets > all[j].Stats.Packets
		}
		return all[i].Key.String() < all[j].Key.String()
	})
	if len(all) > n {
		all = all[:n]
	}
	keys := make([]flow.Key, len(all))
	for i := range all {
		keys[i] = all[i].Key
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
	out := m.records()
	sort.Slice(out, func(i, j int) bool {
		return out[i].Key.String() < out[j].Key.String()
	})
	return out
}
