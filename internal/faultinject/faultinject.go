// Package faultinject provides deterministic fault injection for the
// dataplane's overload and failure tests: NF wrappers that panic or
// stall on a precise schedule, and a mempool allocation-failure
// schedule. None of the injectors touch dataplane hot-path code — the
// wrappers implement nf.NF and are installed like any other instance,
// and the pool hook is the one nil-check mempool already pays.
//
// Determinism is the point: chaos tests must fail the same way every
// run, so every injector triggers on call counts (not timers or
// randomness) and exposes its state through atomics safe to read from
// the test goroutine.
package faultinject

import (
	"sync"
	"sync/atomic"
	"time"

	"nfp/internal/mempool"
	"nfp/internal/nf"
	"nfp/internal/packet"
)

// PanicNF wraps an NF and panics on a scheduled set of Process calls
// (1-based call numbers, counted per packet — batched invocations count
// each packet). After the scheduled panics are spent the wrapper
// behaves exactly like the inner NF, so a supervisor restart that
// builds a fresh unwrapped instance and a wrapper that has exhausted
// its schedule are both "healthy again".
type PanicNF struct {
	Inner    nf.NF
	panicOn  map[uint64]bool
	calls    atomic.Uint64
	panicked atomic.Uint64
}

// NewPanicNF wraps inner so that the given 1-based Process call numbers
// panic.
func NewPanicNF(inner nf.NF, panicOnCalls ...uint64) *PanicNF {
	m := make(map[uint64]bool, len(panicOnCalls))
	for _, c := range panicOnCalls {
		m[c] = true
	}
	return &PanicNF{Inner: inner, panicOn: m}
}

// Name delegates to the inner NF so the wrapper slots into any graph
// position the inner NF could occupy (and so the supervisor restarts it
// from the inner NF's registry entry).
func (p *PanicNF) Name() string { return p.Inner.Name() }

// Process panics when the current call number is scheduled, otherwise
// delegates.
func (p *PanicNF) Process(pkt *packet.Packet) nf.Verdict {
	n := p.calls.Add(1)
	if p.panicOn[n] {
		p.panicked.Add(1)
		panic("faultinject: scheduled NF panic")
	}
	return p.Inner.Process(pkt)
}

// ProcessBatch forwards the burst through nf.ProcessAll, so the inner
// NF's batch path runs. When a scheduled call number falls inside the
// burst, the packets before it are processed, then the wrapper panics,
// as the per-packet path would. One runtime goroutine drives an NF
// instance, so the count read and the count added are not interleaved.
func (p *PanicNF) ProcessBatch(pkts []*packet.Packet, verdicts []nf.Verdict) {
	base := p.calls.Load()
	for i := range pkts {
		if p.panicOn[base+uint64(i)+1] {
			nf.ProcessAll(p.Inner, pkts[:i], verdicts[:i])
			p.calls.Add(uint64(i) + 1)
			p.panicked.Add(1)
			panic("faultinject: scheduled NF panic")
		}
	}
	p.calls.Add(uint64(len(pkts)))
	nf.ProcessAll(p.Inner, pkts, verdicts)
}

// Calls returns how many packets the wrapper has seen.
func (p *PanicNF) Calls() uint64 { return p.calls.Load() }

// Panicked returns how many scheduled panics have fired.
func (p *PanicNF) Panicked() uint64 { return p.panicked.Load() }

// StallNF wraps an NF and, once armed, blocks every Process call until
// Release — freezing the runtime goroutine so its receive ring backs
// up. It models a wedged NF (infinite loop, lost lock) as opposed to a
// crashed one. SetDelay arms a milder mode: every call sleeps a fixed
// duration before delegating, inflating the NF's measured service time
// without wedging it — the knob diagnosis tests use to manufacture a
// bottleneck with a known ρ.
type StallNF struct {
	Inner nf.NF

	mu      sync.Mutex
	stalled bool
	gate    chan struct{}
	waiting atomic.Int64
	delayNS atomic.Int64
}

// NewStallNF wraps inner in the released (pass-through) state.
func NewStallNF(inner nf.NF) *StallNF {
	return &StallNF{Inner: inner, gate: make(chan struct{})}
}

func (s *StallNF) Name() string { return s.Inner.Name() }

// Stall arms the wrapper: subsequent Process calls block until Release.
func (s *StallNF) Stall() {
	s.mu.Lock()
	if !s.stalled {
		s.stalled = true
		s.gate = make(chan struct{})
	}
	s.mu.Unlock()
}

// Release unblocks every stalled Process call and disarms the wrapper.
func (s *StallNF) Release() {
	s.mu.Lock()
	if s.stalled {
		s.stalled = false
		close(s.gate)
	}
	s.mu.Unlock()
}

// Stalled reports how many Process calls are currently blocked on the
// gate (at most one with a single-goroutine runtime, but the wrapper
// does not assume that).
func (s *StallNF) Stalled() int64 { return s.waiting.Load() }

// SetDelay makes every subsequent Process call sleep d before
// delegating — service-time inflation, independent of the Stall gate.
// SetDelay(0) restores pass-through timing.
func (s *StallNF) SetDelay(d time.Duration) { s.delayNS.Store(int64(d)) }

// Delay returns the current per-call delay.
func (s *StallNF) Delay() time.Duration { return time.Duration(s.delayNS.Load()) }

// Process blocks while the wrapper is armed, sleeps any configured
// delay, then delegates.
func (s *StallNF) Process(pkt *packet.Packet) nf.Verdict {
	s.wait(1)
	return s.Inner.Process(pkt)
}

// ProcessBatch is Process for a burst: it blocks while armed and sleeps
// the delay once per packet, then forwards the burst through
// nf.ProcessAll, so the inner NF's batch path runs.
func (s *StallNF) ProcessBatch(pkts []*packet.Packet, verdicts []nf.Verdict) {
	s.wait(len(pkts))
	nf.ProcessAll(s.Inner, pkts, verdicts)
}

// wait blocks while the wrapper is armed, then sleeps the delay of n
// packets.
func (s *StallNF) wait(n int) {
	s.mu.Lock()
	stalled, gate := s.stalled, s.gate
	s.mu.Unlock()
	if stalled {
		s.waiting.Add(1)
		<-gate
		s.waiting.Add(-1)
	}
	if d := s.delayNS.Load(); d > 0 {
		time.Sleep(time.Duration(d) * time.Duration(n))
	}
}

// AllocSchedule fails mempool allocations on a deterministic schedule:
// the 1-based batch numbers in failOn are rejected as pool-exhaustion
// events. Install with pool.SetFaultHook(sched.Hook) and clear with
// pool.SetFaultHook(nil).
type AllocSchedule struct {
	failOn map[uint64]bool
	batch  atomic.Uint64
	failed atomic.Uint64
}

// NewAllocSchedule builds a schedule failing the given 1-based
// allocation-batch numbers.
func NewAllocSchedule(failOnBatches ...uint64) *AllocSchedule {
	m := make(map[uint64]bool, len(failOnBatches))
	for _, b := range failOnBatches {
		m[b] = true
	}
	return &AllocSchedule{failOn: m}
}

// Hook is the mempool.SetFaultHook callback.
func (a *AllocSchedule) Hook(want int) bool {
	n := a.batch.Add(1)
	if a.failOn[n] {
		a.failed.Add(1)
		return false
	}
	return true
}

// Batches returns how many allocation batches the schedule has seen.
func (a *AllocSchedule) Batches() uint64 { return a.batch.Load() }

// Failed returns how many batches the schedule rejected.
func (a *AllocSchedule) Failed() uint64 { return a.failed.Load() }

// PoolHog holds buffers out of a pool to simulate exhaustion by a
// greedy co-tenant. Grab takes up to n buffers (returning how many it
// got); ReleaseAll frees every held buffer.
type PoolHog struct {
	pool *mempool.Pool
	held []*packet.Packet
}

// NewPoolHog creates a hog over pool.
func NewPoolHog(pool *mempool.Pool) *PoolHog { return &PoolHog{pool: pool} }

// Grab takes up to n buffers from the pool and reports how many it
// actually got (the pool may run out sooner).
func (h *PoolHog) Grab(n int) int {
	got := 0
	for i := 0; i < n; i++ {
		pkt := h.pool.Get()
		if pkt == nil {
			break
		}
		h.held = append(h.held, pkt)
		got++
	}
	return got
}

// Held returns how many buffers the hog currently holds.
func (h *PoolHog) Held() int { return len(h.held) }

// ReleaseAll frees every held buffer back to the pool.
func (h *PoolHog) ReleaseAll() {
	for _, pkt := range h.held {
		pkt.Free()
	}
	h.held = nil
}
