package flightrec

import "testing"

// edge is a lifecycle event (never coalesced) tagged by its timestamp.
func edge(i int) slot {
	return slot{runKey: runKey{kind: KindRestart}, first: int64(i), last: int64(i)}
}

// drop is one drop of the run (cause, node) at time ts.
func drop(cause Cause, node uint32, ts int64) slot {
	return slot{
		runKey: runKey{kind: KindDrop, cause: cause, node: node},
		first:  ts, last: ts, count: 1, pid: uint64(ts),
	}
}

// TestRingWrap: a full lap overwrites the oldest entries and snapshot
// returns only the newest window, in append order.
func TestRingWrap(t *testing.T) {
	r := newRing(8)
	const n = 20
	for i := 0; i < n; i++ {
		r.record(edge(i))
	}
	got := r.snapshot(0)
	if len(got) != 8 {
		t.Fatalf("snapshot after wrap returned %d events, want 8", len(got))
	}
	for i, e := range got {
		if want := int64(n - 8 + i); e.first != want {
			t.Fatalf("slot %d = %d, want %d", i, e.first, want)
		}
	}
}

// TestRingSnapshotMax caps the tail without disturbing order.
func TestRingSnapshotMax(t *testing.T) {
	r := newRing(8)
	for i := 0; i < 6; i++ {
		r.record(edge(i))
	}
	got := r.snapshot(3)
	if len(got) != 3 {
		t.Fatalf("snapshot(3) returned %d events", len(got))
	}
	for i, e := range got {
		if e.first != int64(3+i) {
			t.Fatalf("snapshot(3)[%d] = %d, want %d", i, e.first, 3+i)
		}
	}
	if len(r.snapshot(0)) != 6 {
		t.Fatal("max<=0 must return the whole retained window")
	}
}

// TestRingRoundsUpToPowerOfTwo: capacity requests are rounded, never
// truncated.
func TestRingRoundsUpToPowerOfTwo(t *testing.T) {
	r := newRing(9)
	if len(r.slots) != 16 {
		t.Fatalf("newRing(9) allocated %d slots, want 16", len(r.slots))
	}
}

// TestRingCoalescesRuns: interleaved events of two runs take two slots
// however many there are, each keeping its first event as exemplar and
// tracking count and latest timestamp; a lifecycle edge between them
// takes its own slot and does not break the runs.
func TestRingCoalescesRuns(t *testing.T) {
	r := newRing(8)
	ts := int64(0)
	for i := 0; i < 100; i++ {
		if i == 50 {
			r.record(edge(-1))
		}
		ts++
		r.record(drop(CauseNFVerdict, 1, ts))
		ts++
		r.record(drop(CauseDropTail, 2, ts))
	}
	got := r.snapshot(0)
	if len(got) != 3 {
		t.Fatalf("ring holds %d slots, want 3 (two runs and the edge)", len(got))
	}
	a, b, e := got[0], got[1], got[2]
	if a.cause != CauseNFVerdict || a.first != 1 || a.pid != 1 || a.last != 199 || a.count != 100 {
		t.Fatalf("first run = %+v", a)
	}
	if b.cause != CauseDropTail || b.first != 2 || b.pid != 2 || b.last != 200 || b.count != 100 {
		t.Fatalf("second run = %+v", b)
	}
	if e.kind != KindRestart || e.first != -1 {
		t.Fatalf("edge = %+v", e)
	}
	// A different generation or node is a different run.
	other := drop(CauseNFVerdict, 1, 300)
	other.gen = 2
	r.record(other)
	r.record(drop(CauseNFVerdict, 3, 301))
	if n := len(r.snapshot(0)); n != 5 {
		t.Fatalf("ring holds %d slots after two new runs, want 5", n)
	}
}

// TestRingLappedRunRestarts: once distinct events lap a run's slot, the
// run's next event opens a fresh slot (and a fresh count) rather than
// writing into whatever now lives at the old position.
func TestRingLappedRunRestarts(t *testing.T) {
	r := newRing(4)
	r.record(drop(CausePanic, 1, 1))
	r.record(drop(CausePanic, 1, 2))
	for i := 0; i < 4; i++ {
		r.record(edge(10 + i))
	}
	r.record(drop(CausePanic, 1, 20))
	r.record(drop(CausePanic, 1, 21))
	got := r.snapshot(0)
	if len(got) != 4 {
		t.Fatalf("ring holds %d slots, want 4", len(got))
	}
	for i, e := range got[:3] {
		if e.kind != KindRestart || e.first != int64(11+i) {
			t.Fatalf("slot %d = %+v, want edge %d", i, e, 11+i)
		}
	}
	if run := got[3]; run.kind != KindDrop || run.first != 20 || run.last != 21 || run.count != 2 {
		t.Fatalf("restarted run = %+v", run)
	}
	if len(r.runs) != 1 {
		t.Fatalf("run index holds %d keys, want 1", len(r.runs))
	}
}
