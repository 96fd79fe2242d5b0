package nf

import (
	"time"

	"nfp/internal/nfa"
	"nfp/internal/packet"
)

// Shaper models Table 2's traffic shaper (Linux tc): a token-bucket
// rate limiter. Its Table 2 row carries no packet actions — shaping
// delays packets without touching their bytes — which is why the
// orchestrator can place it in parallel with anything.
//
// In this dataplane a delay is realized by blocking the NF runtime
// until a token is available (the shaper "owns" its core, like a tc
// qdisc owns its queue); packets are never modified or dropped.
type Shaper struct {
	rate   float64 // tokens (packets) per second
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time // injectable clock for tests

	shaped  uint64
	delayed uint64
}

// NewShaper creates a shaper admitting rate packets/second with the
// given burst. A rate of 0 disables shaping (pure pass-through).
func NewShaper(rate float64, burst int) *Shaper {
	if burst <= 0 {
		burst = 32
	}
	s := &Shaper{rate: rate, burst: float64(burst), now: time.Now}
	s.tokens = s.burst
	return s
}

// Name implements NF.
func (s *Shaper) Name() string { return nfa.NFShaper }

// Process consumes one token, refilling by elapsed time, and blocks
// briefly when the bucket is empty.
func (s *Shaper) Process(p *packet.Packet) Verdict {
	s.shaped++
	if s.rate <= 0 {
		return Pass
	}
	for {
		now := s.now()
		if s.last.IsZero() {
			s.last = now
		}
		s.tokens += now.Sub(s.last).Seconds() * s.rate
		s.last = now
		if s.tokens > s.burst {
			s.tokens = s.burst
		}
		if s.tokens >= 1 {
			s.tokens--
			return Pass
		}
		s.delayed++
		need := (1 - s.tokens) / s.rate
		sleep := time.Duration(need * float64(time.Second))
		if sleep > time.Millisecond {
			sleep = time.Millisecond // bounded waits keep the ring live
		}
		time.Sleep(sleep)
	}
}

// Stats returns (packets shaped, delay events).
func (s *Shaper) Stats() (shaped, delayed uint64) { return s.shaped, s.delayed }
