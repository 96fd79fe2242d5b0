package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Stage identifies one hop of a packet's path through the dataplane.
type Stage uint8

const (
	// StageClassify is the classifier assigning MID/PID.
	StageClassify Stage = iota
	// StageNF is one NF runtime completing Process.
	StageNF
	// StageMerge is a merger instance finalizing a join.
	StageMerge
	// StageOutput is the packet leaving the service graph.
	StageOutput
	// StageDrop is the packet's drop being accounted at the output.
	StageDrop
	// StageRingWait is the time a reference spent queued in an NF's
	// receive ring (producer enqueue to consumer dequeue).
	StageRingWait
	// StageMergeWait is one branch tail waiting in the Accumulating
	// Table (tail arrival to join completion).
	StageMergeWait
	// StageCopy is the materialization of a parallel-branch copy; its
	// SrcVer names the version it forked from.
	StageCopy
)

func (s Stage) String() string {
	switch s {
	case StageClassify:
		return "classify"
	case StageNF:
		return "nf"
	case StageMerge:
		return "merge"
	case StageOutput:
		return "output"
	case StageDrop:
		return "drop"
	case StageRingWait:
		return "ring-wait"
	case StageMergeWait:
		return "merge-wait"
	case StageCopy:
		return "copy"
	}
	return "stage(?)"
}

// MarshalText renders the stage name into JSON trace dumps.
func (s Stage) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a stage name back from a JSON trace dump.
func (s *Stage) UnmarshalText(b []byte) error {
	for cand := StageClassify; cand <= StageCopy; cand++ {
		if cand.String() == string(b) {
			*s = cand
			return nil
		}
	}
	return fmt.Errorf("telemetry: unknown stage %q", b)
}

// TraceEvent is one span of a sampled packet: the half-open interval
// [Begin, TS] a packet reference spent in one pipeline stage. Spans of
// one version chain tile contiguously — each span begins exactly where
// the previous span of its chain ended — so the stage durations of a
// packet sum to its end-to-end latency with no gaps or double counting.
type TraceEvent struct {
	// Seq is a global monotonic sequence number; sorting by Seq
	// reconstructs hop order across goroutines.
	Seq uint64 `json:"seq"`
	PID uint64 `json:"pid"`
	MID uint32 `json:"mid"`
	// Ver is the packet-copy version the span was recorded for (the
	// original is 1; parallel copies get their own chains).
	Ver uint8 `json:"ver,omitempty"`
	// Stage says which pipeline layer recorded the span.
	Stage Stage `json:"stage"`
	// Name identifies the component (NF name, merger instance, …).
	Name string `json:"name,omitempty"`
	// Begin is the span's start wall-clock nanosecond timestamp.
	Begin int64 `json:"begin,omitempty"`
	// TS is the span's end wall-clock nanosecond timestamp.
	TS int64 `json:"ts"`
	// Join is 1 + the join ID on merge-wait and merge spans (0 = the
	// span is not part of a join).
	Join int `json:"join,omitempty"`
	// Shard is 1 + the dataplane shard the span was recorded on, so a
	// single-shard server keeps emitting byte-identical events (0 =
	// not sharded).
	Shard int `json:"shard,omitempty"`
	// Gen is the config generation the span's packet was injected
	// under, for spans recorded after a live reload (0 = generation 1,
	// so a never-reloaded server keeps emitting byte-identical events).
	Gen int `json:"gen,omitempty"`
	// SrcVer is the version a copy span forked from (copy spans only).
	SrcVer uint8 `json:"srcver,omitempty"`
}

// Dur returns the span's duration in nanoseconds.
func (e TraceEvent) Dur() int64 { return e.TS - e.Begin }

// cursorKey identifies one in-flight ring delivery of a sampled packet:
// a (pid, version) reference enqueued toward one NF runtime.
type cursorKey struct {
	pid  uint64
	ver  uint8
	node int
}

// Tracer records per-stage spans of a sampled subset of packets into a
// bounded ring, overwriting the oldest events on wrap. Sampling is a
// two-instruction hash-and-mask on the immutable PID, so every hop of
// one packet is either fully traced or fully skipped; the Sampled check
// is the only cost unsampled packets pay.
type Tracer struct {
	mask uint64 // sample when mix(pid)&mask == 0
	seq  atomic.Uint64

	// evicted counts ring overwrites; nil until SetEvictedCounter.
	evicted *Counter

	mu   sync.Mutex
	buf  []TraceEvent
	next int  // ring write cursor
	full bool // buf has wrapped at least once

	// cursors carries span-chain cursors across ring handoffs: the
	// producer stashes its chain position when it enqueues a sampled
	// reference, the consuming runtime takes it back at dequeue as the
	// ring-wait span's begin. Keyed per delivery, so parallel branches
	// that share one packet reference never race on a common field.
	cmu     sync.Mutex
	cursors map[cursorKey]int64
}

// NewTracer creates a tracer sampling roughly one in sampleRate packets
// (rounded down to a power of two; 1 traces everything, <=0 returns a
// nil tracer, which disables tracing at zero cost) with a ring of
// capacity events (default 4096).
func NewTracer(sampleRate, capacity int) *Tracer {
	if sampleRate <= 0 {
		return nil
	}
	if capacity <= 0 {
		capacity = 4096
	}
	mask := uint64(1)
	for int(mask<<1) <= sampleRate {
		mask <<= 1
	}
	return &Tracer{
		mask:    mask - 1,
		buf:     make([]TraceEvent, 0, capacity),
		cursors: make(map[cursorKey]int64),
	}
}

// mixPID decorrelates sequential PIDs (classifiers hand them out
// incrementally) so sampling picks a spread subset, not a prefix.
func mixPID(pid uint64) uint64 {
	pid *= 0x9e3779b97f4a7c15
	return pid ^ pid>>32
}

// Sampled reports whether pid's packet is observed. It is the
// dataplane's one sampling decision: spans, end-to-end latency and flow
// accounting all cover exactly the PIDs it selects. Safe on a nil
// receiver (never sampled).
func (t *Tracer) Sampled(pid uint64) bool {
	return t != nil && mixPID(pid)&t.mask == 0
}

// Rate is the effective sampling rate — one PID in Rate is sampled
// (the configured rate rounded down to a power of two), so a count over
// the sampled set scales to the whole by it. 0 on a nil receiver.
func (t *Tracer) Rate() uint64 {
	if t == nil {
		return 0
	}
	return t.mask + 1
}

// SetEvictedCounter wires a counter that ticks once per trace event
// overwritten on ring wrap, making eviction pressure visible. Call
// before recording begins.
func (t *Tracer) SetEvictedCounter(c *Counter) {
	if t != nil {
		t.evicted = c
	}
}

// RecordSpan appends one span. The tracer assigns Seq; a Begin that is
// unset, negative, or after TS clamps to TS (zero-length span), so
// durations are never negative. Callers gate on Sampled first. Safe on
// a nil receiver.
func (t *Tracer) RecordSpan(ev TraceEvent) {
	if t == nil {
		return
	}
	if ev.Begin <= 0 || ev.Begin > ev.TS {
		ev.Begin = ev.TS
	}
	ev.Seq = t.seq.Add(1)
	t.mu.Lock()
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, ev)
	} else {
		t.buf[t.next] = ev
		t.full = true
		t.evicted.Inc()
	}
	t.next = (t.next + 1) % cap(t.buf)
	t.mu.Unlock()
}

// StashCursor records the chain cursor of a sampled (pid, ver)
// reference about to be enqueued toward node, to be taken back by the
// consumer as its ring-wait begin. Safe on a nil receiver.
func (t *Tracer) StashCursor(pid uint64, ver uint8, node int, ts int64) {
	if t == nil {
		return
	}
	t.cmu.Lock()
	t.cursors[cursorKey{pid: pid, ver: ver, node: node}] = ts
	t.cmu.Unlock()
}

// TakeCursor removes and returns the stashed cursor for a (pid, ver)
// delivery to node, or 0 when none was stashed. Safe on a nil receiver.
func (t *Tracer) TakeCursor(pid uint64, ver uint8, node int) int64 {
	if t == nil {
		return 0
	}
	key := cursorKey{pid: pid, ver: ver, node: node}
	t.cmu.Lock()
	ts := t.cursors[key]
	delete(t.cursors, key)
	t.cmu.Unlock()
	return ts
}

// Events returns the retained events ordered by sequence number
// (oldest first). Safe on a nil receiver.
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	var out []TraceEvent
	if t.full {
		out = make([]TraceEvent, 0, cap(t.buf))
		out = append(out, t.buf[t.next:]...)
		out = append(out, t.buf[:t.next]...)
	} else {
		out = append([]TraceEvent(nil), t.buf...)
	}
	t.mu.Unlock()
	// Ring order and seq order can diverge when concurrent writers
	// interleave between seq allocation and the locked append.
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// GroupEvents groups a seq-ordered event slice per packet. Packets
// whose classify span was already overwritten are removed from the
// groups and reported in the second return value as truncated, so
// every returned trace starts at the classifier and eviction is
// visible instead of silent.
func GroupEvents(evs []TraceEvent) (map[uint64][]TraceEvent, int) {
	if len(evs) == 0 {
		return nil, 0
	}
	m := make(map[uint64][]TraceEvent)
	for _, ev := range evs {
		m[ev.PID] = append(m[ev.PID], ev)
	}
	truncated := 0
	for pid, hops := range m {
		if hops[0].Stage != StageClassify {
			delete(m, pid)
			truncated++
		}
	}
	return m, truncated
}

// GroupByPID groups the retained events per packet, each group
// hop-ordered, plus the number of packets dropped because their head
// (the classify span) was evicted from the ring. Safe on a nil
// receiver.
func (t *Tracer) GroupByPID() (map[uint64][]TraceEvent, int) {
	return GroupEvents(t.Events())
}
