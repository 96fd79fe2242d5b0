package ring

import (
	"runtime"
	"sync/atomic"
)

// spinBudget is how many Gosched yields a wait spends before it parks:
// enough that a stage fed burst after burst never parks between bursts.
const spinBudget = 256

// Spin is one wait episode's spin phase: the zero value starts one, and
// the waiter zeroes it on progress.
type Spin int

// Yield gives up the processor and reports true while the budget lasts,
// then reports false without yielding: time to park.
func (s *Spin) Yield() bool {
	if *s == spinBudget {
		return false
	}
	*s++
	runtime.Gosched()
	return true
}

// Cond is a condition goroutines park on until others make it hold. A
// parker publishes itself, checks the condition again and only then
// blocks; a changer publishes its change, then sends a non-blocking
// wake-up if one atomic load sees anyone parked. Atomics are
// sequentially consistent, so one side sees the other: no wake-up is
// lost, and nothing waits on a clock. Of several parkers a wake-up
// reaches one, whose progress makes the next change; one nobody was
// blocked for stays pending and costs the next parker a re-check.
type Cond struct {
	parked atomic.Int32
	wake   chan struct{}
}

// NewCond returns a Cond ready to use.
func NewCond() *Cond { return &Cond{wake: make(chan struct{}, 1)} }

// Park blocks until ready reports true, checking it once the caller is
// published and again after every wake-up.
func (c *Cond) Park(ready func() bool) {
	c.parked.Add(1)
	for !ready() {
		<-c.wake
	}
	c.parked.Add(-1)
}

// Notify wakes a parked goroutine, if any; call it after the change.
func (c *Cond) Notify() {
	if c.parked.Load() != 0 {
		select {
		case c.wake <- struct{}{}:
		default: // a wake-up is already pending
		}
	}
}
