package dataplane

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"nfp/internal/graph"
	"nfp/internal/nfa"
	"nfp/internal/packet"
)

// reloadFailures counts the reload_failed events on the flight recorder.
func reloadFailures(s *Server) int {
	n := 0
	for _, e := range s.FlightRecorder().Events(0) {
		if e.Kind == "reload_failed" {
			n++
		}
	}
	return n
}

// installState is everything a failed install must leave untouched.
type installState struct {
	gen      uint64
	history  []GenerationInfo
	mid1     []*planRuntime
	nplans   int
	failures int
}

func snapshotInstall(s *Server) installState {
	return installState{
		gen:      s.Generation(),
		history:  s.ConfigInfo().History,
		mid1:     runtimesOf(s, 1),
		nplans:   len(*s.shards[0].plans.Load()),
		failures: reloadFailures(s),
	}
}

// same reports how got differs from st, allowing for wantFailed new
// reload_failed events.
func (st installState) same(got installState, wantFailed int) error {
	switch {
	case got.gen != st.gen:
		return fmt.Errorf("generation %d -> %d", st.gen, got.gen)
	case fmt.Sprint(got.history) != fmt.Sprint(st.history):
		return fmt.Errorf("history %v -> %v", st.history, got.history)
	case fmt.Sprint(got.mid1) != fmt.Sprint(st.mid1):
		return fmt.Errorf("MID 1 runtimes were replaced")
	case got.nplans != st.nplans:
		return fmt.Errorf("installed graphs %d -> %d", st.nplans, got.nplans)
	case got.failures != st.failures+wantFailed:
		return fmt.Errorf("reload_failed events %d -> %d, want +%d", st.failures, got.failures, wantFailed)
	}
	return nil
}

// TestInstallRefusesPlanOverBudget: a plan one packet of which needs
// more than a shard can ever set aside could never be admitted, so it is
// refused at install with an error naming the bound, and the graph it
// would have replaced keeps forwarding.
func TestInstallRefusesPlanOverBudget(t *testing.T) {
	s := New(Config{PoolSize: 4}) // copy reserve: 2 buffers, half of a pool this small
	one := copyStage(nfn(nfa.NFMonitor, 0), nfn(nfa.NFLB, 0))
	three := graph.Seq{Items: []graph.Node{one,
		copyStage(nfn(nfa.NFMonitor, 1), nfn(nfa.NFLB, 1)),
		copyStage(nfn(nfa.NFMonitor, 2), nfn(nfa.NFLB, 2)),
	}}
	if err := s.AddGraph(1, one); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	col := collectOutputs(s)
	before := snapshotInstall(s)
	for name, call := range map[string]func() error{
		"AddGraph": func() error { return s.AddGraph(2, three) },
		"Reload":   func() error { return s.Reload(1, three) },
	} {
		err := call()
		if err == nil || !strings.Contains(err.Error(), "needs 3 copies") || !strings.Contains(err.Error(), "budget of 2 (copy reserve") {
			t.Errorf("%s of a 3-copy plan on a 2-buffer reserve: %v, want an error naming both", name, err)
		}
	}
	if err := before.same(snapshotInstall(s), 1); err != nil {
		t.Errorf("refused installs changed the server: %v", err)
	}
	const n = 64
	for i := 0; i < n; i++ {
		if !s.Inject(buildInto(t, s, shardSpec(i, 0))) {
			t.Fatal("inject failed")
		}
	}
	s.Stop()
	checkConserved(t, s, col, n)
}

// TestInstallContract pins what AddGraph and Reload share as one
// install path: which of them accepts a MID, that a refused or failed
// install changes nothing, that only a failed Reload raises the
// reload_failed incident trigger, and that both refuse a stopped server.
func TestInstallContract(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, started := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards%d/started=%v", shards, started), func(t *testing.T) {
				s := New(Config{Shards: shards, PoolSize: 256})
				if err := s.AddGraph(1, nfn(nfa.NFMonitor, 0)); err != nil {
					t.Fatal(err)
				}
				var col *chaosCollector
				start := func() {
					if err := s.Start(); err != nil {
						t.Fatal(err)
					}
					col = collectOutputs(s)
				}
				if started {
					start()
				}
				before := snapshotInstall(s)
				for _, c := range []struct {
					name       string
					call       func() error
					wantFailed int
				}{
					{"AddGraph on an installed MID", func() error { return s.AddGraph(1, nfn(nfa.NFL3Fwd, 0)) }, 0},
					{"AddGraph of an unknown NF", func() error { return s.AddGraph(3, nfn("no-such-nf", 0)) }, 0},
					{"Reload on a missing MID", func() error { return s.Reload(2, nfn(nfa.NFMonitor, 0)) }, 1},
					{"Reload to an unknown NF", func() error { return s.Reload(1, nfn("no-such-nf", 0)) }, 1},
				} {
					if err := c.call(); err == nil {
						t.Errorf("%s succeeded", c.name)
					}
					after := snapshotInstall(s)
					if err := before.same(after, c.wantFailed); err != nil {
						t.Errorf("%s: %v", c.name, err)
					}
					before = after
				}

				if err := s.Reload(1, nfn(nfa.NFL3Fwd, 0)); err != nil {
					t.Fatal(err)
				}
				if got := s.Generation(); got != before.gen+1 {
					t.Errorf("generation after Reload = %d, want %d", got, before.gen+1)
				}
				if got := reloadFailures(s); got != before.failures {
					t.Errorf("successful Reload recorded %d reload_failed events", got-before.failures)
				}

				if !started {
					start()
				}
				const n = 64
				for i := 0; i < n; i++ {
					if !s.Inject(buildInto(t, s, shardSpec(i, 0))) {
						t.Fatal("inject failed")
					}
				}
				s.Stop()
				if got := col.wait(); got != n {
					t.Errorf("collected %d outputs, want %d", got, n)
				}
				before = snapshotInstall(s)
				if err := s.AddGraph(4, nfn(nfa.NFMonitor, 0)); err == nil {
					t.Error("AddGraph after Stop succeeded")
				}
				if err := s.Reload(1, nfn(nfa.NFMonitor, 0)); err == nil {
					t.Error("Reload after Stop succeeded")
				}
				if err := before.same(snapshotInstall(s), 1); err != nil {
					t.Errorf("after Stop: %v", err)
				}
				if in := s.Pool().InUse(); in != 0 {
					t.Errorf("pool leak: %d buffers in use", in)
				}
			})
		}
	}
}

// TestInstallConcurrent races AddGraph(MID 2) against each other
// control-plane call on the one lock they share. However the race
// falls, a graph whose AddGraph returned nil is fully live: every packet
// injected for it afterwards surfaces, nothing leaks. (With Start this
// needs the new graph's runtimes started exactly once; with Stop, its
// goroutines registered before Stop waits for them.)
func TestInstallConcurrent(t *testing.T) {
	const n = 64
	toMID2 := func(i int) packet.BuildSpec {
		sp := shardSpec(i, 0)
		sp.DstPort = 443
		return sp
	}
	// both runs AddGraph(2) beside other and returns AddGraph's error.
	both := func(s *Server, other func()) error {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			other()
		}()
		err := s.AddGraph(2, nfn(nfa.NFL3Fwd, 0))
		wg.Wait()
		return err
	}
	newServer := func(t *testing.T) *Server {
		s := New(Config{Shards: 2, PoolSize: 256})
		if err := s.AddGraph(1, nfn(nfa.NFMonitor, 0)); err != nil {
			t.Fatal(err)
		}
		s.Classifier().AddRule(Match{DstPort: 443}, 2)
		return s
	}
	// finish injects n packets for each MID, stops, and checks that all
	// of them — plus the already injected — surfaced.
	finish := func(t *testing.T, s *Server, col *chaosCollector, already int) {
		for i := 0; i < n; i++ {
			if !s.Inject(buildInto(t, s, shardSpec(i, 1))) || !s.Inject(buildInto(t, s, toMID2(i))) {
				t.Fatal("inject failed")
			}
		}
		s.Stop()
		checkConserved(t, s, col, already+2*n)
	}

	t.Run("Start", func(t *testing.T) {
		for round := 0; round < 20; round++ {
			s := newServer(t)
			if err := both(s, func() {
				if err := s.Start(); err != nil {
					t.Error(err)
				}
			}); err != nil {
				t.Fatal(err)
			}
			finish(t, s, collectOutputs(s), 0)
		}
	})

	t.Run("ReloadUnderLoad", func(t *testing.T) {
		for round := 0; round < 10; round++ {
			s := newServer(t)
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			col := collectOutputs(s)
			stop := make(chan struct{})
			loaded := make(chan int)
			go func() {
				i := 0
				for ; ; i++ {
					select {
					case <-stop:
						loaded <- i
						return
					default:
					}
					if !s.Inject(buildInto(t, s, shardSpec(i, 2))) {
						t.Error("inject failed")
					}
				}
			}()
			err := both(s, func() {
				if err := s.Reload(1, nfn(nfa.NFL3Fwd, 0)); err != nil {
					t.Error(err)
				}
			})
			close(stop)
			already := <-loaded
			if err != nil {
				t.Fatal(err)
			}
			if got := s.Generation(); got != 2 {
				t.Fatalf("generation = %d, want 2", got)
			}
			finish(t, s, col, already)
		}
	})

	t.Run("Stop", func(t *testing.T) {
		for round := 0; round < 20; round++ {
			s := newServer(t)
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			col := collectOutputs(s)
			for i := 0; i < n; i++ {
				if !s.Inject(buildInto(t, s, shardSpec(i, 0))) {
					t.Fatal("inject failed")
				}
			}
			// AddGraph either beat Stop and went live, or lost and was
			// refused; the server must stop cleanly both ways.
			err := both(s, s.Stop)
			if installed := len(*s.shards[0].plans.Load()) == 2; installed != (err == nil) {
				t.Fatalf("AddGraph returned %v but MID 2 installed = %v", err, installed)
			}
			checkConserved(t, s, col, n)
		}
	})
}

// checkConserved asserts a stopped server surfaced exactly want packets
// and holds no buffer.
func checkConserved(t *testing.T, s *Server, col *chaosCollector, want int) {
	t.Helper()
	got := col.wait()
	st := s.Stats()
	if st.Injected != st.Outputs+st.Drops || int(st.Injected) != want || got != want {
		t.Fatalf("injected %d, outputs %d + drops %d, collected %d, want %d",
			st.Injected, st.Outputs, st.Drops, got, want)
	}
	if in := s.Pool().InUse(); in != 0 {
		t.Fatalf("pool leak: %d buffers in use", in)
	}
}
