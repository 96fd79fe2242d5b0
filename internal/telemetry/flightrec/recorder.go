package flightrec

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nfp/internal/packet"
	"nfp/internal/telemetry"
)

// Kind is the event-ring record type.
type Kind uint8

const (
	// KindNone marks an empty slot (never emitted).
	KindNone Kind = iota
	// KindDrop is a terminal packet drop with provenance.
	KindDrop
	// KindPanic is an NF panic (triggers an incident snapshot).
	KindPanic
	// KindRestart is a supervised NF restart succeeding.
	KindRestart
	// KindRestartFail is a supervised NF restart failing.
	KindRestartFail
	// KindBackpressure is a producer parking on a full ring or an
	// exhausted admission budget (one event per engagement, not per
	// spin).
	KindBackpressure
	// KindHealth is a diagnose health-state transition.
	KindHealth
	// KindReloadSwap is a config generation going live.
	KindReloadSwap
	// KindReloadDrained is a superseded generation finishing its drain.
	KindReloadDrained
	// KindReloadFailed is a reload attempt that never swapped
	// (compile/validation error; triggers an incident snapshot).
	KindReloadFailed
	// KindInstall is the initial graph installation.
	KindInstall
	// KindStop is the server stopping after conservation was reached.
	KindStop
)

var kindNames = [...]string{
	"none", "drop", "panic", "restart", "restart_fail",
	"backpressure", "health", "reload_swap", "reload_drained",
	"reload_failed", "install", "stop",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// coalesces reports whether repeats of an event fold into one slot (see
// ring): the kinds that fire per packet or per stalled producer, whose
// Count is additive. Every other kind is a lifecycle edge and keeps one
// slot per occurrence.
func (k Kind) coalesces() bool {
	return k == KindDrop || k == KindBackpressure
}

// Event is one decoded event-ring record, ready for JSON. A coalesced
// run reads as its first event — TS, Stage, PID, Flow and Cursor are
// that exemplar's — plus LastTS, the time of its latest event, and
// Count, the events it stands for.
type Event struct {
	TS     int64  `json:"ts_ns"`
	LastTS int64  `json:"last_ts_ns,omitempty"`
	Kind   string `json:"kind"`
	Shard  int    `json:"shard"`
	Gen    uint64 `json:"gen,omitempty"`
	Cause  string `json:"cause,omitempty"`
	Stage  string `json:"stage,omitempty"`
	Node   string `json:"node,omitempty"`
	Detail string `json:"detail,omitempty"`
	PID    uint64 `json:"pid,omitempty"`
	Flow   string `json:"flow,omitempty"`
	Cursor int64  `json:"cursor_ns,omitempty"`
	Count  uint64 `json:"count,omitempty"`
}

// Record is one flight-recorder event: what a caller writes and what a
// shard's ring stores. A drop's provenance fills Cause, Stage, PID,
// Cursor and Flow. A coalesced run (see ring) keeps its first record as
// the exemplar, the time of its latest, and their summed Count. It
// holds no pointers, so the collector never scans a ring.
type Record struct {
	Kind   Kind
	Cause  Cause
	Stage  uint8 // telemetry.Stage value of where a dropped packet died
	Gen    uint64
	Node   uint32 // interned NF/site name (0 = none)
	Detail uint32 // interned free-form detail (0 = none)
	// Count is the event's payload; for the coalescing kinds it is the
	// weight the event adds to its run (a drop or backpressure: 1).
	Count   uint64
	PID     uint64
	Cursor  int64          // span cursor (ns): how far along its path a dropped packet got
	Flow    packet.FlowKey // the dropped packet's 5-tuple, when HasFlow
	HasFlow bool

	first, last int64 // stamped by Recorder.Record
}

// ringSize is each shard's event-ring capacity.
const ringSize = 1024

// Config sizes a Recorder.
type Config struct {
	// Shards is the number of independent event rings (>= 1).
	Shards int
}

// Recorder is the always-on flight recorder: per-shard coalescing
// event rings plus a string intern table so the hot path records only
// integers. All methods are safe on a nil receiver (no-ops).
type Recorder struct {
	rings []*ring

	mu    sync.RWMutex
	names []string
	idx   map[string]uint32

	onIncident atomic.Pointer[func(reason string)]
}

// NewRecorder builds a recorder with cfg.Shards independent rings.
func NewRecorder(cfg Config) *Recorder {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	r := &Recorder{
		rings: make([]*ring, cfg.Shards),
		names: []string{""},
		idx:   map[string]uint32{"": 0},
	}
	for i := range r.rings {
		r.rings[i] = newRing(ringSize)
	}
	return r
}

// Intern maps a string to a stable small ID for event payloads. Call
// at setup time (plan build), never per packet. Safe on nil (returns
// 0).
func (r *Recorder) Intern(s string) uint32 {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	id, ok := r.idx[s]
	r.mu.RUnlock()
	if ok {
		return id
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.idx[s]; ok {
		return id
	}
	id = uint32(len(r.names))
	r.names = append(r.names, s)
	r.idx[s] = id
	return id
}

func (r *Recorder) name(id uint32) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if int(id) < len(r.names) {
		return r.names[id]
	}
	return fmt.Sprintf("name(%d)", id)
}

// ring returns a shard's ring; out-of-range shards record on shard 0.
func (r *Recorder) ring(shard int) *ring {
	if shard < 0 || shard >= len(r.rings) {
		shard = 0
	}
	return r.rings[shard]
}

// Record puts one event, stamped now, on a shard's ring: a run of
// drops (or of backpressure episodes) with the same cause, node and
// generation shares one slot, the first its exemplar. KindPanic and
// KindReloadFailed additionally fire the incident hook.
func (r *Recorder) Record(shard int, e Record) {
	if r == nil {
		return
	}
	e.first = time.Now().UnixNano()
	e.last = e.first
	r.ring(shard).record(e)
	if e.Kind == KindPanic || e.Kind == KindReloadFailed {
		r.Incident(e.Kind.String() + ":" + r.name(e.Node) + r.name(e.Detail))
	}
}

// SetOnIncident installs the anomaly hook (e.g. a Snapshotter's
// Trigger). The hook must be fast and non-blocking: it runs on
// dataplane goroutines. Safe on nil.
func (r *Recorder) SetOnIncident(fn func(reason string)) {
	if r == nil {
		return
	}
	if fn == nil {
		r.onIncident.Store(nil)
		return
	}
	r.onIncident.Store(&fn)
}

// Incident fires the anomaly hook directly — for triggers that have
// no ring kind of their own (health-state transitions are recorded
// separately by the diagnoser). Safe on nil.
func (r *Recorder) Incident(reason string) {
	if r == nil {
		return
	}
	if fn := r.onIncident.Load(); fn != nil {
		(*fn)(reason)
	}
}

// Events decodes the newest events across every shard ring, oldest
// first, up to max per shard (<= 0 = full retained window). Safe on
// nil (returns nil).
func (r *Recorder) Events(max int) []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for shard, rg := range r.rings {
		for _, e := range rg.snapshot(max) {
			out = append(out, r.decode(shard, e))
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}

func (r *Recorder) decode(shard int, e Record) Event {
	ev := Event{TS: e.first, Kind: e.Kind.String(), Shard: shard, Gen: e.Gen, Count: e.Count}
	if e.last != e.first {
		ev.LastTS = e.last
	}
	if e.Node != 0 {
		ev.Node = r.name(e.Node)
	}
	if e.Detail != 0 {
		ev.Detail = r.name(e.Detail)
	}
	if e.Kind != KindDrop {
		return ev
	}
	ev.Cause = e.Cause.String()
	ev.Stage = telemetry.Stage(e.Stage).String()
	ev.PID = e.PID
	ev.Cursor = e.Cursor
	if e.HasFlow {
		ev.Flow = e.Flow.String()
	}
	return ev
}
