package flightrec

import (
	"sync"
	"testing"

	"nfp/internal/packet"
)

// TestRecorderNilSafe: every method must no-op on a nil receiver.
func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	if id := r.Intern("x"); id != 0 {
		t.Fatalf("nil Intern = %d, want 0", id)
	}
	r.Drop(DropRecord{})
	r.Event(Note{Kind: KindPanic})
	r.SetOnIncident(func(string) { t.Fatal("hook fired on nil recorder") })
	r.Incident("x")
	if evs := r.Events(0); evs != nil {
		t.Fatalf("nil Events returned %d events", len(evs))
	}
}

// TestRecorderDropDecode round-trips a full DropRecord through the
// packed ring word format.
func TestRecorderDropDecode(t *testing.T) {
	r := NewRecorder(Config{Shards: 2, StageNames: func(s uint8) string {
		if s == 3 {
			return "ring_wait"
		}
		return "?"
	}})
	node := r.Intern("firewall")
	r.Drop(DropRecord{
		Shard: 1, Cause: CausePanic, Stage: 3, Gen: 7, Node: node,
		PID: 12345, Cursor: 999,
		Flow: packet.FlowKey{
			Src: [4]byte{10, 1, 2, 3}, Dst: [4]byte{10, 4, 5, 6},
			SrcPort: 4242, DstPort: 80, Proto: 6,
		},
		HasKey: true,
	})
	evs := r.Events(0)
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	e := evs[0]
	if e.Kind != "drop" || e.Cause != "panic" || e.Stage != "ring_wait" ||
		e.Shard != 1 || e.Gen != 7 || e.Node != "firewall" ||
		e.PID != 12345 || e.Cursor != 999 {
		t.Fatalf("decoded event mismatch: %+v", e)
	}
	if e.Flow != "10.1.2.3:4242>10.4.5.6:80/6" {
		t.Fatalf("flow rendered %q", e.Flow)
	}
	if e.TS == 0 {
		t.Fatal("timestamp not stamped")
	}
}

// TestRecorderNoteDecode round-trips a Note with interned node and
// detail strings.
func TestRecorderNoteDecode(t *testing.T) {
	r := NewRecorder(Config{})
	r.Event(Note{
		Kind: KindHealth, Gen: 3,
		Node:   r.Intern("monitor"),
		Detail: r.Intern("healthy->degraded"),
		Count:  11,
	})
	evs := r.Events(0)
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	e := evs[0]
	if e.Kind != "health" || e.Gen != 3 || e.Node != "monitor" ||
		e.Detail != "healthy->degraded" || e.Count != 11 {
		t.Fatalf("decoded note mismatch: %+v", e)
	}
	if e.Cause != "" || e.Flow != "" {
		t.Fatalf("non-drop note leaked drop fields: %+v", e)
	}
}

// TestRecorderIncidentHook: KindPanic and KindReloadFailed fire the
// anomaly hook with a descriptive reason; benign kinds do not.
func TestRecorderIncidentHook(t *testing.T) {
	r := NewRecorder(Config{})
	var mu sync.Mutex
	var reasons []string
	r.SetOnIncident(func(reason string) {
		mu.Lock()
		reasons = append(reasons, reason)
		mu.Unlock()
	})
	r.Event(Note{Kind: KindRestart})
	r.Event(Note{Kind: KindReloadSwap})
	r.Event(Note{Kind: KindPanic, Node: r.Intern("ids")})
	r.Event(Note{Kind: KindReloadFailed, Detail: r.Intern("compile error")})
	mu.Lock()
	defer mu.Unlock()
	if len(reasons) != 2 {
		t.Fatalf("hook fired %d times (%v), want 2", len(reasons), reasons)
	}
	if reasons[0] != "panic:ids" {
		t.Fatalf("panic reason = %q", reasons[0])
	}
	if reasons[1] != "reload_failed:compile error" {
		t.Fatalf("reload-failed reason = %q", reasons[1])
	}
	// Uninstalling the hook stops delivery.
	r.SetOnIncident(nil)
	r.Event(Note{Kind: KindPanic})
	if len(reasons) != 2 {
		t.Fatal("hook fired after uninstall")
	}
}

// TestRecorderKeepsPanicUnderFlood is the lost-panic regression: one
// panic, then a flood of benign drop, shed and backpressure events —
// four runs, four concurrent producers, a hundred times the ring's
// capacity, with a reader snapshotting throughout. The runs coalesce,
// so the panic is still in the ring afterwards, and no event went
// uncounted: each run's Count is exactly what its producers recorded.
func TestRecorderKeepsPanicUnderFlood(t *testing.T) {
	r := NewRecorder(Config{RingSize: 1024})
	ids, mon := r.Intern("ids"), r.Intern("monitor")
	r.Event(Note{Kind: KindPanic, Gen: 1, Node: mon})

	const producers, perProducer = 4, 25600 // 102400 events
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				r.Events(64)
			}
		}
	}()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				switch (p + i) % 4 {
				case 0:
					r.Drop(DropRecord{Cause: CauseNFVerdict, Gen: 1, Node: ids, PID: uint64(i)})
				case 1:
					r.Drop(DropRecord{Cause: CauseDropTail, Gen: 1, Node: mon, PID: uint64(i)})
				case 2:
					r.Event(Note{Kind: KindShed, Gen: 1, Node: mon, Count: 1})
				case 3:
					r.Event(Note{Kind: KindBackpressure, Gen: 1, Node: ids, Count: 1})
				}
			}
		}(p)
	}
	wg.Wait()
	close(stop)
	<-readerDone

	counts := map[string]uint64{}
	for _, e := range r.Events(0) {
		counts[e.Kind+"/"+e.Cause+"/"+e.Node] += max(e.Count, 1)
		if e.Kind != "panic" && (e.LastTS < e.TS || e.Count < 2) {
			t.Errorf("run %s/%s/%s: count %d, first %d, last %d", e.Kind, e.Cause, e.Node, e.Count, e.TS, e.LastTS)
		}
	}
	if counts["panic//monitor"] != 1 {
		t.Fatalf("the panic was lapped out of the ring: %v", counts)
	}
	const perRun = producers * perProducer / 4
	for _, run := range []string{"drop/nf_verdict/ids", "drop/drop_tail/monitor", "shed//monitor", "backpressure//ids"} {
		if counts[run] != perRun {
			t.Errorf("run %s counts %d events, recorded %d", run, counts[run], perRun)
		}
	}
	if len(counts) != 5 {
		t.Errorf("ring holds %d distinct events, want the panic and four runs: %v", len(counts), counts)
	}
}

// TestIntern: stable IDs, idempotent, and the empty string is the
// reserved zero ID.
func TestIntern(t *testing.T) {
	r := NewRecorder(Config{})
	if id := r.Intern(""); id != 0 {
		t.Fatalf(`Intern("") = %d, want 0`, id)
	}
	a, b := r.Intern("monitor"), r.Intern("firewall")
	if a == b || a == 0 || b == 0 {
		t.Fatalf("interned IDs collide: %d %d", a, b)
	}
	if again := r.Intern("monitor"); again != a {
		t.Fatalf("Intern not idempotent: %d then %d", a, again)
	}
	if name := r.name(a); name != "monitor" {
		t.Fatalf("name(%d) = %q", a, name)
	}
}

// TestKindStrings pins the kind name table (bundle consumers parse
// these).
func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		KindDrop: "drop", KindPanic: "panic", KindRestart: "restart",
		KindRestartFail: "restart_fail", KindShed: "shed",
		KindBackpressure: "backpressure", KindHealth: "health",
		KindReloadSwap: "reload_swap", KindReloadDrained: "reload_drained",
		KindReloadFailed: "reload_failed", KindInstall: "install", KindStop: "stop",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("Kind %d = %q, want %q", k, k.String(), s)
		}
	}
}
