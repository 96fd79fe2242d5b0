package nf

import (
	"slices"

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
// computed — so the hot path never widens to netip addresses, and the
// exported API speaks the same key. At the table's ceiling the newest
// flow displaces one that has gone quiet (flowtab.Evict): per-flow
// counters stop covering every flow ever seen, the totals do not.
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
func (m *Monitor) Flow(k packet.FlowKey) (FlowStats, bool) {
	st := m.counters.Get(k)
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

// FlowRecord pairs a flow key with its counters, for export.
type FlowRecord struct {
	Key   packet.FlowKey
	Stats FlowStats
}

// Snapshot returns all tracked flows in deterministic order (by
// FlowKey.Compare), the input to the NetFlow exporter.
func (m *Monitor) Snapshot() []FlowRecord {
	out := make([]FlowRecord, 0, m.counters.Len())
	m.counters.Range(func(fk packet.FlowKey, st *FlowStats) bool {
		out = append(out, FlowRecord{Key: fk, Stats: *st})
		return true
	})
	slices.SortFunc(out, func(a, b FlowRecord) int { return a.Key.Compare(b.Key) })
	return out
}
