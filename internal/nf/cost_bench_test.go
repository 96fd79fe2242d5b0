package nf

import (
	"testing"

	"nfp/internal/nfa"
)

// BenchmarkNFCost times one Process call of every NF the default
// registry builds, over fig13_dcmix's datacenter frame mix. It is the
// source of nfa's CostNS for the NFs no bench workload runs, and of the
// 300-cycle synthetic NF's cost that core's break-even constant quotes.
// A writer's figure includes restoring the frame it rewrote (one copy
// of at most 1500 B), as BenchmarkVPNProcess_DCMix's does.
func BenchmarkNFCost(b *testing.B) {
	reg := NewRegistry()
	for _, name := range reg.Names() {
		b.Run(name, func(b *testing.B) {
			n, err := reg.New(name)
			if err != nil {
				b.Fatal(err)
			}
			prof, ok := nfa.LookupProfile(name)
			if !ok {
				b.Fatalf("%s: no catalog profile", name)
			}
			rewrites := len(prof.WriteSet()) > 0 || prof.AddsOrRemoves()
			pkts, orig := dcMixFrames(1024)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pkts[i&1023]
				if rewrites {
					restore(p, orig[i&1023])
				}
				n.Process(p)
			}
		})
	}
}

// TestEveryNFHasCost pins nfa's cost table to the registry: every NF
// implemented here carries a measured CostNS except the synthetic one,
// whose cost is whatever its loop count makes it.
func TestEveryNFHasCost(t *testing.T) {
	for _, name := range NewRegistry().Names() {
		p, ok := nfa.LookupProfile(name)
		if !ok {
			t.Errorf("%s: no profile", name)
			continue
		}
		if name == nfa.NFSynthetic {
			if p.CostNS != 0 {
				t.Errorf("synthetic CostNS = %d, want 0 (unknown)", p.CostNS)
			}
			continue
		}
		if p.CostNS <= 0 {
			t.Errorf("%s: CostNS = %d, want a measured figure", name, p.CostNS)
		}
	}
}
