package flightrec

import (
	"fmt"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nfp/internal/packet"
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
	// KindShed is a backpressure shed discarding a burst.
	KindShed
	// KindBackpressure is a producer parking on a full ring under the
	// block policy (one event per engagement, not per spin).
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
	"none", "drop", "panic", "restart", "restart_fail", "shed",
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
	return k == KindDrop || k == KindShed || k == KindBackpressure
}

// Event is one decoded event-ring record, ready for JSON. A coalesced
// run reads as its first event — TS, Stage, PID, Flow and Cursor are
// that exemplar's — plus LastTS, the time of its latest event, and
// Count, the events (shed: packets) it stands for.
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

// DropRecord is the provenance of one terminal drop.
type DropRecord struct {
	Shard  int
	Cause  Cause
	Stage  uint8 // telemetry.Stage value of where the packet died
	Gen    uint64
	Node   uint32 // interned NF name of the drop's origin node
	PID    uint64
	Cursor int64          // span cursor (ns) — how far along its path it was
	Flow   packet.FlowKey // the packet's packed 5-tuple, when HasKey
	HasKey bool
}

// Note is a non-drop event (panic, restart, shed, backpressure,
// health, reload lifecycle).
type Note struct {
	Shard  int
	Kind   Kind
	Gen    uint64
	Node   uint32 // interned NF/site name (0 = none)
	Detail uint32 // interned free-form detail (0 = none)
	// Count is the event's payload; for the coalescing kinds it is the
	// weight the event adds to its run (shed: packets, backpressure: 1).
	Count uint64
}

// StageNamer turns the packed telemetry.Stage byte back into a name;
// injected by the recorder's owner so flightrec needs no dataplane
// import. Nil falls back to the numeric value.
type StageNamer func(uint8) string

// Config sizes a Recorder.
type Config struct {
	// Shards is the number of independent event rings (>= 1).
	Shards int
	// RingSize is the per-shard ring capacity (rounded up to a power
	// of two; default 1024).
	RingSize int
	// StageNames renders stage bytes in decoded events.
	StageNames StageNamer
}

// Recorder is the always-on flight recorder: per-shard coalescing
// event rings plus a string intern table so the hot path records only
// integers. All methods are safe on a nil receiver (no-ops).
type Recorder struct {
	rings      []*ring
	stageNames StageNamer

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
	if cfg.RingSize <= 0 {
		cfg.RingSize = 1024
	}
	r := &Recorder{
		rings:      make([]*ring, cfg.Shards),
		stageNames: cfg.StageNames,
		names:      []string{""},
		idx:        map[string]uint32{"": 0},
	}
	for i := range r.rings {
		r.rings[i] = newRing(cfg.RingSize)
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

// Drop records one terminal drop: a run of drops with the same cause,
// node and generation shares one slot, the first drop its exemplar.
func (r *Recorder) Drop(d DropRecord) {
	if r == nil {
		return
	}
	now := time.Now().UnixNano()
	r.ring(d.Shard).record(slot{
		runKey: runKey{gen: d.Gen, node: d.Node, kind: KindDrop, cause: d.Cause},
		stage:  d.Stage, first: now, last: now, count: 1,
		pid: d.PID, cursor: d.Cursor, flow: d.Flow, hasFlow: d.HasKey,
	})
}

// Event records one non-drop event. KindPanic and KindReloadFailed
// additionally fire the incident hook.
func (r *Recorder) Event(n Note) {
	if r == nil {
		return
	}
	now := time.Now().UnixNano()
	r.ring(n.Shard).record(slot{
		runKey: runKey{gen: n.Gen, node: n.Node, kind: n.Kind},
		detail: n.Detail, first: now, last: now, count: n.Count,
	})
	if n.Kind == KindPanic || n.Kind == KindReloadFailed {
		r.Incident(n.Kind.String() + ":" + r.name(n.Node) + r.name(n.Detail))
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

func (r *Recorder) decode(shard int, e slot) Event {
	k := e.kind
	ev := Event{TS: e.first, Kind: k.String(), Shard: shard, Gen: e.gen, Count: e.count}
	if e.last != e.first {
		ev.LastTS = e.last
	}
	if e.node != 0 {
		ev.Node = r.name(e.node)
	}
	if e.detail != 0 {
		ev.Detail = r.name(e.detail)
	}
	if k != KindDrop {
		return ev
	}
	ev.Cause = e.cause.String()
	if r.stageNames != nil {
		ev.Stage = r.stageNames(e.stage)
	} else {
		ev.Stage = fmt.Sprintf("stage(%d)", e.stage)
	}
	ev.PID = e.pid
	ev.Cursor = e.cursor
	if f := e.flow; e.hasFlow {
		ev.Flow = fmt.Sprintf("%s:%d>%s:%d/%d",
			netip.AddrFrom4(f.Src), f.SrcPort, netip.AddrFrom4(f.Dst), f.DstPort, f.Proto)
	}
	return ev
}
