package ring

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// lostWakeupDeadline bounds a trial: a lost wake-up leaves a waiter
// blocked for good, so any trial running this long has one.
const lostWakeupDeadline = 20 * time.Second

// spend yields until s refuses, returning how many it granted.
func spend(s *Spin) int {
	n := 0
	for n <= spinBudget && s.Yield() {
		n++
	}
	return n
}

func TestSpinYieldsBudgetThenStops(t *testing.T) {
	var s Spin
	if n := spend(&s); n != spinBudget {
		t.Fatalf("%d yields granted, want the budget of %d", n, spinBudget)
	}
	if s.Yield() {
		t.Fatal("yield granted past the spin budget")
	}
}

func TestSpinZeroValueRearmsBudget(t *testing.T) {
	var s Spin
	spend(&s)
	s = 0 // progress: a new episode
	if n := spend(&s); n != spinBudget {
		t.Fatalf("%d yields granted after rearming, want %d", n, spinBudget)
	}
}

// TestMPSCNoLostWakeupProperty: producers pause longer than the spin
// budget, so the consumer parks on an empty ring, and a 2-slot ring
// with a consumer that pauses too makes the producers park on a full
// one. Every item must arrive exactly once, in per-producer FIFO order,
// and the consumer must see the close that Wake announces — all before
// a deadline no trial comes near unless a wake-up was lost.
func TestMPSCNoLostWakeupProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		producers, items := 2+rng.Intn(3), 100+rng.Intn(200)
		r := NewMPSCOf[uint64](2)
		pause := func(rng *rand.Rand) {
			if rng.Intn(4) == 0 {
				time.Sleep(time.Duration(rng.Intn(100)) * time.Microsecond)
			}
		}

		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			prng := rand.New(rand.NewSource(rng.Int63()))
			wg.Add(1)
			go func(p uint64) {
				defer wg.Done()
				for i := 0; i < items; {
					var burst [3]uint64
					k := min(1+prng.Intn(3), items-i)
					for j := range k {
						burst[j] = p<<32 | uint64(i+j)
					}
					i += k
					var spin Spin
					for rem := burst[:k]; len(rem) > 0; {
						if n := r.EnqueueBatch(rem); n > 0 {
							rem, spin = rem[n:], 0
						} else if !spin.Yield() {
							r.AwaitRoom()
						}
					}
					pause(prng)
				}
			}(uint64(p))
		}
		var closed atomic.Bool
		go func() {
			wg.Wait()
			closed.Store(true)
			r.Wake()
		}()

		got := make(chan []uint64, 1)
		go func() {
			var out []uint64
			var buf [3]uint64
			var spin Spin
			crng := rand.New(rand.NewSource(rng.Int63()))
			for {
				n := r.DequeueBatch(buf[:1+crng.Intn(3)])
				if n == 0 {
					if closed.Load() {
						got <- out
						return
					}
					if !spin.Yield() {
						r.AwaitItems(closed.Load)
					}
					continue
				}
				spin = 0
				out = append(out, buf[:n]...)
				pause(crng)
			}
		}()

		var out []uint64
		select {
		case out = <-got:
		case <-time.After(lostWakeupDeadline):
			t.Errorf("seed %d: wedged (lost wake-up): ring len %d, closed %v", seed, r.Len(), closed.Load())
			return false
		}
		next := make([]uint64, producers)
		for _, v := range out {
			p, i := v>>32, v&(1<<32-1)
			if i != next[p] {
				t.Errorf("seed %d: producer %d item %d arrived, want %d", seed, p, i, next[p])
				return false
			}
			next[p]++
		}
		for p, n := range next {
			if n != uint64(items) {
				t.Errorf("seed %d: producer %d delivered %d of %d", seed, p, n, items)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 32}); err != nil {
		t.Fatal(err)
	}
}

// TestCondSharedBudgetNoLostWakeupProperty: the admission pattern. Many
// goroutines take units of a small shared budget, each parking on one
// Cond when it cannot, and give them back after a pause longer than the
// spin budget, notifying as they do. Each wake-up goes to one parker;
// every parker must still get its turn before the deadline.
func TestCondSharedBudgetNoLostWakeupProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		workers, rounds, units := 3+rng.Intn(6), 20+rng.Intn(30), int64(1+rng.Intn(3))
		var avail atomic.Int64
		avail.Store(units)
		c := NewCond()
		take := func(want int64) bool {
			for {
				a := avail.Load()
				if a < want {
					return false
				}
				if avail.CompareAndSwap(a, a-want) {
					return true
				}
			}
		}

		done := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			want := 1 + rng.Int63n(units)
			wrng := rand.New(rand.NewSource(rng.Int63()))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					var spin Spin
					for !take(want) {
						if !spin.Yield() {
							c.Park(func() bool { return avail.Load() >= want })
						}
					}
					if wrng.Intn(2) == 0 {
						time.Sleep(time.Duration(wrng.Intn(50)) * time.Microsecond)
					} else {
						runtime.Gosched()
					}
					avail.Add(want)
					c.Notify()
				}
			}()
		}
		go func() {
			wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(lostWakeupDeadline):
			t.Errorf("seed %d: wedged (lost wake-up): %d units free of %d, %d parked", seed, avail.Load(), units, c.parked.Load())
			return false
		}
		if a := avail.Load(); a != units {
			t.Errorf("seed %d: %d units free after the run, want %d", seed, a, units)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}
