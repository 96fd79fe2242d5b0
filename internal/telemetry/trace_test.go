package telemetry

import (
	"sync"
	"testing"
)

func TestTracerSamplingDeterministic(t *testing.T) {
	tr := NewTracer(64, 128)
	var sampled, total int
	for pid := uint64(1); pid <= 100000; pid++ {
		if tr.Sampled(pid) != tr.Sampled(pid) {
			t.Fatalf("sampling of pid %d not deterministic", pid)
		}
		if tr.Sampled(pid) {
			sampled++
		}
		total++
	}
	// rate 64 → roughly 1/64 of PIDs; allow 2x slack either way.
	lo, hi := total/128, total/32
	if sampled < lo || sampled > hi {
		t.Errorf("sampled %d of %d PIDs at rate 64, want within [%d,%d]", sampled, total, lo, hi)
	}

	// Rate 1 samples everything.
	all := NewTracer(1, 8)
	for pid := uint64(0); pid < 100; pid++ {
		if !all.Sampled(pid) {
			t.Errorf("rate-1 tracer skipped pid %d", pid)
		}
	}
}

// recordPoint records a zero-length span — all the ring and grouping
// tests need of an event.
func recordPoint(tr *Tracer, pid uint64, mid uint32, stage Stage, name string, ts int64) {
	tr.RecordSpan(TraceEvent{PID: pid, MID: mid, Stage: stage, Name: name, Begin: ts, TS: ts})
}

func TestTracerRingWraparound(t *testing.T) {
	const capacity = 8
	tr := NewTracer(1, capacity)
	for i := uint64(1); i <= 20; i++ {
		recordPoint(tr, i, 1, StageNF, "x", int64(i))
	}
	evs := tr.Events()
	if len(evs) != capacity {
		t.Fatalf("ring retained %d events, want %d", len(evs), capacity)
	}
	// Most-recent capacity events survive, in seq order.
	for i, ev := range evs {
		wantSeq := uint64(20 - capacity + 1 + i)
		if ev.Seq != wantSeq {
			t.Errorf("event %d seq = %d, want %d", i, ev.Seq, wantSeq)
		}
	}
}

func TestTracerSeqOrderAcrossGoroutines(t *testing.T) {
	tr := NewTracer(1, 4096)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for i := uint64(0); i < 100; i++ {
				recordPoint(tr, base+i, 1, StageNF, "x", 0)
			}
		}(uint64(g) * 1000)
	}
	wg.Wait()
	evs := tr.Events()
	if len(evs) != 800 {
		t.Fatalf("retained %d events, want 800", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("events not seq-ordered at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}

func TestTracerByPIDDropsPartialTraces(t *testing.T) {
	tr := NewTracer(1, 6)
	// PID 1's classify hop will be overwritten by the wrap below.
	recordPoint(tr, 1, 1, StageClassify, "classifier", 10)
	recordPoint(tr, 1, 1, StageNF, "ids", 20)
	// PID 2 records a complete trace that fits in the ring.
	recordPoint(tr, 2, 1, StageClassify, "classifier", 30)
	recordPoint(tr, 2, 1, StageNF, "ids", 40)
	recordPoint(tr, 2, 1, StageMerge, "merger-0", 50)
	recordPoint(tr, 2, 1, StageOutput, "", 60)
	// Push PID 1's classify hop out of the ring.
	recordPoint(tr, 3, 1, StageClassify, "classifier", 70)

	traces, _ := tr.GroupByPID()
	if _, ok := traces[1]; ok {
		t.Error("partial trace for pid 1 not dropped")
	}
	hops, ok := traces[2]
	if !ok {
		t.Fatal("complete trace for pid 2 missing")
	}
	wantStages := []Stage{StageClassify, StageNF, StageMerge, StageOutput}
	if len(hops) != len(wantStages) {
		t.Fatalf("pid 2 has %d hops, want %d", len(hops), len(wantStages))
	}
	for i, h := range hops {
		if h.Stage != wantStages[i] {
			t.Errorf("pid 2 hop %d = %v, want %v", i, h.Stage, wantStages[i])
		}
	}
	if _, ok := traces[3]; !ok {
		t.Error("pid 3's classify-only trace dropped (it starts at the classifier)")
	}
}

func TestStageTextRoundTrip(t *testing.T) {
	for s := StageClassify; s <= StageCopy; s++ {
		b, err := s.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Stage
		if err := back.UnmarshalText(b); err != nil {
			t.Fatalf("unmarshal %q: %v", b, err)
		}
		if back != s {
			t.Errorf("round trip %v -> %q -> %v", s, b, back)
		}
	}
	var s Stage
	if err := s.UnmarshalText([]byte("bogus")); err == nil {
		t.Error("unknown stage name did not error")
	}
}

// TestTracerEvictedCounter checks the eviction counter ticks once per
// overwritten event and the GroupByPID truncation count reports the
// packets whose trace head was lost.
func TestTracerEvictedCounter(t *testing.T) {
	const capacity = 8
	tr := NewTracer(1, capacity)
	evicted := NewRegistry().Counter("nfp_trace_evicted_total")
	tr.SetEvictedCounter(evicted)
	for i := uint64(1); i <= 20; i++ {
		recordPoint(tr, i, 1, StageNF, "x", int64(i))
	}
	if got := evicted.Value(); got != 20-capacity {
		t.Errorf("evicted counter = %d, want %d", got, 20-capacity)
	}

	// The ring holds only mid-chain spans now, so every retained PID
	// group is truncated.
	groups, truncated := tr.GroupByPID()
	if len(groups) != 0 {
		t.Errorf("GroupByPID kept %d truncated groups", len(groups))
	}
	if truncated != capacity {
		t.Errorf("truncated = %d, want %d (one per retained headless pid)", truncated, capacity)
	}
}

// TestTracerRecordSpanClamping checks Begin sanitization: unset or
// inverted begins clamp to TS so durations are never negative.
func TestTracerRecordSpanClamping(t *testing.T) {
	tr := NewTracer(1, 8)
	tr.RecordSpan(TraceEvent{PID: 1, Stage: StageNF, TS: 100})             // Begin unset
	tr.RecordSpan(TraceEvent{PID: 2, Stage: StageNF, Begin: 500, TS: 100}) // inverted
	tr.RecordSpan(TraceEvent{PID: 3, Stage: StageNF, Begin: 40, TS: 100})  // sane
	evs := tr.Events()
	if evs[0].Begin != 100 || evs[0].Dur() != 0 {
		t.Errorf("unset begin not clamped: %+v", evs[0])
	}
	if evs[1].Begin != 100 || evs[1].Dur() != 0 {
		t.Errorf("inverted begin not clamped: %+v", evs[1])
	}
	if evs[2].Begin != 40 || evs[2].Dur() != 60 {
		t.Errorf("sane span altered: %+v", evs[2])
	}
}

// TestTracerCursorStash checks the ring-handoff stash: take returns
// what was stashed exactly once, keys are per (pid, ver, node), and a
// nil tracer is a no-op.
func TestTracerCursorStash(t *testing.T) {
	tr := NewTracer(1, 8)
	tr.StashCursor(7, 1, 3, 1111)
	tr.StashCursor(7, 2, 3, 2222) // same pid+node, different version
	tr.StashCursor(7, 1, 4, 3333) // same pid+ver, different node
	if got := tr.TakeCursor(7, 1, 3); got != 1111 {
		t.Errorf("TakeCursor(7,1,3) = %d, want 1111", got)
	}
	if got := tr.TakeCursor(7, 1, 3); got != 0 {
		t.Errorf("second take returned %d, want 0 (take removes)", got)
	}
	if got := tr.TakeCursor(7, 2, 3); got != 2222 {
		t.Errorf("TakeCursor(7,2,3) = %d, want 2222", got)
	}
	if got := tr.TakeCursor(7, 1, 4); got != 3333 {
		t.Errorf("TakeCursor(7,1,4) = %d, want 3333", got)
	}

	var nilT *Tracer
	nilT.StashCursor(1, 1, 1, 1)
	if got := nilT.TakeCursor(1, 1, 1); got != 0 {
		t.Errorf("nil tracer TakeCursor = %d", got)
	}
}

// TestTracerConcurrentRecordAndRead races writers (RecordSpan, stash
// traffic) against readers (Events, GroupByPID) — the
// -race gate for the tracer's whole surface.
func TestTracerConcurrentRecordAndRead(t *testing.T) {
	tr := NewTracer(1, 256)
	tr.SetEvictedCounter(NewRegistry().Counter("nfp_trace_evicted_total"))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for i := uint64(0); i < 500; i++ {
				pid := base + i
				recordPoint(tr, pid, 1, StageClassify, "classifier", int64(i+1))
				tr.StashCursor(pid, 1, 0, int64(i+1))
				tr.RecordSpan(TraceEvent{
					PID: pid, MID: 1, Ver: 1, Stage: StageRingWait, Name: "x",
					Begin: tr.TakeCursor(pid, 1, 0), TS: int64(i + 2),
				})
			}
		}(uint64(g) * 10000)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				evs := tr.Events()
				for j := 1; j < len(evs); j++ {
					if evs[j].Seq <= evs[j-1].Seq {
						t.Errorf("events not seq-sorted under concurrency")
						return
					}
				}
				_, _ = tr.GroupByPID()
			}
		}()
	}
	wg.Wait()
}

// TestTracerWrapOrderProperty is the wrap-order property test: for any
// write count and capacity, the ring retains exactly min(writes, cap)
// events, seq-sorted, and (single-threaded) precisely the most recent
// ones, with the eviction counter accounting for the difference.
func TestTracerWrapOrderProperty(t *testing.T) {
	for _, capacity := range []int{1, 2, 8, 64} {
		for _, writes := range []int{0, 1, 7, 8, 9, 63, 64, 65, 300} {
			tr := NewTracer(1, capacity)
			evicted := NewRegistry().Counter("e")
			tr.SetEvictedCounter(evicted)
			for i := 1; i <= writes; i++ {
				tr.RecordSpan(TraceEvent{PID: uint64(i), Stage: StageNF, Begin: int64(i), TS: int64(i)})
			}
			evs := tr.Events()
			want := writes
			if want > capacity {
				want = capacity
			}
			if len(evs) != want {
				t.Fatalf("cap=%d writes=%d: retained %d, want %d", capacity, writes, len(evs), want)
			}
			for i, ev := range evs {
				if wantSeq := uint64(writes - want + 1 + i); ev.Seq != wantSeq {
					t.Fatalf("cap=%d writes=%d: event %d seq=%d, want %d", capacity, writes, i, ev.Seq, wantSeq)
				}
			}
			wantEvict := uint64(0)
			if writes > capacity {
				wantEvict = uint64(writes - capacity)
			}
			if got := evicted.Value(); got != wantEvict {
				t.Fatalf("cap=%d writes=%d: evicted=%d, want %d", capacity, writes, got, wantEvict)
			}
		}
	}
}
