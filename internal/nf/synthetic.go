package nf

import (
	"nfp/internal/nfa"
	"nfp/internal/packet"
)

// Synthetic is the evaluation's tunable-complexity NF: "we modify the
// Firewall NF so that it busily loops for a given number of cycles
// after modifying the packet, allowing us to vary the per-packet
// processing time as a representation of NF complexity" (§6.2.2,
// Figure 9). It writes the TTL (its "modification") and then spins.
type Synthetic struct {
	cycles int
	sink   uint64 // defeats dead-code elimination of the spin loop
	seen   uint64
}

// NewSynthetic creates a synthetic NF that burns the given number of
// loop iterations per packet. The iteration count maps one-to-one to
// the paper's "processing cycles per packet" x-axis.
func NewSynthetic(cycles int) *Synthetic {
	if cycles < 0 {
		cycles = 0
	}
	return &Synthetic{cycles: cycles}
}

// Name implements NF.
func (s *Synthetic) Name() string { return nfa.NFSynthetic }

// Cycles returns the configured busy-loop length.
func (s *Synthetic) Cycles() int { return s.cycles }

// Process writes the TTL and busy-loops.
func (s *Synthetic) Process(p *packet.Packet) Verdict {
	if err := p.Parse(); err == nil {
		p.SetTTL(63)
	}
	acc := s.sink
	for i := 0; i < s.cycles; i++ {
		acc = acc*6364136223846793005 + 1442695040888963407 // LCG step ~ a few cycles
	}
	s.sink = acc
	s.seen++
	return Pass
}

// Seen returns the number of processed packets.
func (s *Synthetic) Seen() uint64 { return s.seen }
