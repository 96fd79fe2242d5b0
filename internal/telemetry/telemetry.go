// Package telemetry is the dataplane's observability substrate: a
// central registry of named metrics cheap enough for the packet hot
// path. Counters are sharded across padded cache lines so concurrent NF
// runtimes never bounce the same line; histograms are fixed-size
// log-bucket arrays recorded with a single atomic add; gauges are one
// atomic word. Everything is lock-free after registration.
//
// All metric methods are nil-receiver safe: an uninstrumented component
// holds nil metric pointers and pays only a predictable branch, which
// lets the same code run instrumented and bare.
package telemetry

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Label is one name dimension (rendered as a Prometheus label).
type Label struct {
	Key   string
	Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// padCell is one counter shard on its own cache line.
type padCell struct {
	v atomic.Uint64
	_ [56]byte
}

// shardCount is the number of counter shards, a power of two sized to
// the core count (more shards than cores buys nothing).
var shardCount = func() int {
	n := 1
	for n < runtime.GOMAXPROCS(0) && n < 64 {
		n <<= 1
	}
	return n
}()

// shardIndex picks a shard from the address of the caller's stack.
// Goroutine stacks live in distinct allocations, so discarding the
// in-frame bits spreads concurrent writers across shards without any
// runtime support. The pointer never escapes — it is consumed as an
// integer immediately.
func shardIndex(mask uint64) uint64 {
	var probe byte
	return (uint64(uintptr(unsafe.Pointer(&probe))) >> 10) & mask
}

// Counter is a monotonically increasing sharded counter.
type Counter struct {
	shards []padCell
	mask   uint64
}

// NewCounter creates an unregistered counter (register it with
// Registry.MustRegister, or use Registry.Counter to do both at once).
func NewCounter() *Counter {
	return &Counter{shards: make([]padCell, shardCount), mask: uint64(shardCount - 1)}
}

// Add increments the counter by n. Safe on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.shards[shardIndex(c.mask)].v.Add(n)
}

// Inc increments the counter by one. Safe on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value sums the shards. Safe on a nil receiver (returns 0).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	var sum uint64
	for i := range c.shards {
		sum += c.shards[i].v.Load()
	}
	return sum
}

// Gauge is a settable instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// NewGauge creates an unregistered gauge.
func NewGauge() *Gauge { return &Gauge{} }

// Set stores v. Safe on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta. Safe on a nil receiver.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// SetMax raises the gauge to v if v is greater — a high-water mark.
// Safe on a nil receiver.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value loads the gauge. Safe on a nil receiver (returns 0).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// metricKind discriminates registry entries.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// entry is one registered metric.
type entry struct {
	name   string
	labels []Label
	kind   metricKind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// key renders the unique registry key (name plus sorted labels).
func metricKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Registry is a set of named metrics. Lookup/registration takes a lock;
// holders of the returned metric pointers never do.
type Registry struct {
	mu       sync.Mutex
	entries  map[string]*entry
	order    []string // registration order for stable output
	onScrape []func() // run before every Snapshot (see OnSnapshot)
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: map[string]*entry{}}
}

// sortLabels returns a sorted copy so label order never splits series.
func sortLabels(labels []Label) []Label {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

func (r *Registry) lookup(name string, labels []Label, kind metricKind) *entry {
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[key]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("telemetry: %s re-registered as a different kind", key))
		}
		return e
	}
	e := &entry{name: name, labels: labels, kind: kind}
	switch kind {
	case kindCounter:
		e.c = NewCounter()
	case kindGauge:
		e.g = NewGauge()
	case kindHistogram:
		e.h = NewHistogram()
	}
	r.entries[key] = e
	r.order = append(r.order, key)
	return e
}

// Counter returns the named counter, creating it on first use. Safe on
// a nil receiver (returns a nil Counter, whose methods no-op).
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, sortLabels(labels), kindCounter).c
}

// Gauge returns the named gauge, creating it on first use. Safe on a
// nil receiver.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, sortLabels(labels), kindGauge).g
}

// Histogram returns the named histogram, creating it on first use. Safe
// on a nil receiver.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, sortLabels(labels), kindHistogram).h
}

// register inserts a pre-built metric under name+labels, panicking on a
// duplicate series — component authors own their metrics and attach
// them to a server's registry exactly once.
func (r *Registry) register(name string, labels []Label, kind metricKind, c *Counter, g *Gauge) {
	if r == nil {
		return
	}
	labels = sortLabels(labels)
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[key]; dup {
		panic(fmt.Sprintf("telemetry: duplicate registration of %s", key))
	}
	r.entries[key] = &entry{name: name, labels: labels, kind: kind, c: c, g: g}
	r.order = append(r.order, key)
}

// MustRegisterCounter attaches an existing counter to the registry.
// Safe on a nil receiver (no-op).
func (r *Registry) MustRegisterCounter(name string, c *Counter, labels ...Label) {
	r.register(name, labels, kindCounter, c, nil)
}

// MustRegisterGauge attaches an existing gauge to the registry. Safe on
// a nil receiver.
func (r *Registry) MustRegisterGauge(name string, g *Gauge, labels ...Label) {
	r.register(name, labels, kindGauge, nil, g)
}

// CounterSnap is one counter in a snapshot.
type CounterSnap struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  uint64            `json:"value"`
}

// GaugeSnap is one gauge in a snapshot.
type GaugeSnap struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  int64             `json:"value"`
}

// HistogramSnap is one histogram in a snapshot (nanosecond units).
type HistogramSnap struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Count  uint64            `json:"count"`
	Sum    uint64            `json:"sum"`
	Min    uint64            `json:"min"`
	Max    uint64            `json:"max"`
	P50    uint64            `json:"p50"`
	P95    uint64            `json:"p95"`
	P99    uint64            `json:"p99"`
}

// Snapshot is a point-in-time copy of every registered metric.
type Snapshot struct {
	Counters   []CounterSnap   `json:"counters"`
	Gauges     []GaugeSnap     `json:"gauges"`
	Histograms []HistogramSnap `json:"histograms"`
}

func labelMap(labels []Label) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	m := make(map[string]string, len(labels))
	for _, l := range labels {
		m[l.Key] = l.Value
	}
	return m
}

// OnSnapshot registers fn to run at the start of every Snapshot, on the
// scraping goroutine: the hook for values that are polled when someone
// looks rather than pushed from a hot path. fn sets ordinary metrics of
// this registry; Snapshots may overlap, so it locks what it must. Safe
// on a nil receiver (no-op).
func (r *Registry) OnSnapshot(fn func()) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.onScrape = append(r.onScrape, fn)
	r.mu.Unlock()
}

// Snapshot copies every metric in registration order. Safe on a nil
// receiver (returns an empty snapshot).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	polls := r.onScrape[:len(r.onScrape):len(r.onScrape)]
	r.mu.Unlock()
	for _, poll := range polls {
		poll()
	}
	r.mu.Lock()
	keys := append([]string(nil), r.order...)
	entries := make([]*entry, len(keys))
	for i, k := range keys {
		entries[i] = r.entries[k]
	}
	r.mu.Unlock()
	for _, e := range entries {
		switch e.kind {
		case kindCounter:
			s.Counters = append(s.Counters, CounterSnap{
				Name: e.name, Labels: labelMap(e.labels), Value: e.c.Value(),
			})
		case kindGauge:
			s.Gauges = append(s.Gauges, GaugeSnap{
				Name: e.name, Labels: labelMap(e.labels), Value: e.g.Value(),
			})
		case kindHistogram:
			hs := e.h.Snapshot()
			s.Histograms = append(s.Histograms, HistogramSnap{
				Name: e.name, Labels: labelMap(e.labels),
				Count: hs.Count, Sum: hs.Sum, Min: hs.Min, Max: hs.Max,
				P50: hs.Percentile(50), P95: hs.Percentile(95), P99: hs.Percentile(99),
			})
		}
	}
	return s
}

// HistogramSeries is one live histogram of a family, with its labels —
// the registry handle diagnostics use to take full-bucket snapshots
// (Snapshot keeps only summary quantiles).
type HistogramSeries struct {
	Labels map[string]string
	H      *Histogram
}

// HistogramFamily returns the live histograms registered under name, in
// registration order. The returned pointers stay valid (and recording)
// for the registry's lifetime. Safe on a nil receiver (returns nil).
func (r *Registry) HistogramFamily(name string) []HistogramSeries {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []HistogramSeries
	for _, k := range r.order {
		e := r.entries[k]
		if e.kind == kindHistogram && e.name == name {
			out = append(out, HistogramSeries{Labels: labelMap(e.labels), H: e.h})
		}
	}
	return out
}

// seriesKey orders snapshot entries by name then sorted labels — the
// stable, diffable order tooling wants.
func seriesKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	for _, k := range keys {
		b.WriteByte('\x00')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
	}
	return b.String()
}

// Sort orders the snapshot's counters, gauges and histograms by
// name+labels, replacing the registry's registration order with one
// stable across processes — so repeated snapshots diff cleanly.
func (s *Snapshot) Sort() {
	sort.SliceStable(s.Counters, func(i, j int) bool {
		return seriesKey(s.Counters[i].Name, s.Counters[i].Labels) < seriesKey(s.Counters[j].Name, s.Counters[j].Labels)
	})
	sort.SliceStable(s.Gauges, func(i, j int) bool {
		return seriesKey(s.Gauges[i].Name, s.Gauges[i].Labels) < seriesKey(s.Gauges[j].Name, s.Gauges[j].Labels)
	})
	sort.SliceStable(s.Histograms, func(i, j int) bool {
		return seriesKey(s.Histograms[i].Name, s.Histograms[i].Labels) < seriesKey(s.Histograms[j].Name, s.Histograms[j].Labels)
	})
}

// CounterValue returns a registered counter's value by name+labels, 0
// if absent — a convenience for tests and reconciliation checks.
func (s Snapshot) CounterValue(name string, labels ...Label) uint64 {
	want := labelMap(sortLabels(labels))
	for _, c := range s.Counters {
		if c.Name == name && mapsEqual(c.Labels, want) {
			return c.Value
		}
	}
	return 0
}

// GaugeValue returns a registered gauge's value by name+labels, 0 if
// absent.
func (s Snapshot) GaugeValue(name string, labels ...Label) int64 {
	want := labelMap(sortLabels(labels))
	for _, g := range s.Gauges {
		if g.Name == name && mapsEqual(g.Labels, want) {
			return g.Value
		}
	}
	return 0
}

// SumCounters totals every counter series with the given name across
// all label sets.
func (s Snapshot) SumCounters(name string) uint64 {
	var sum uint64
	for _, c := range s.Counters {
		if c.Name == name {
			sum += c.Value
		}
	}
	return sum
}

func mapsEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
