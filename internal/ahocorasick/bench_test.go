package ahocorasick

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// firstSink keeps First's result live so the call is not optimised away.
var firstSink int

// evalSignatures is the evaluation IDS's rule set, as nf.NewIDS builds
// it: 100 signatures of 15 bytes.
func evalSignatures() [][]byte {
	sigs := make([][]byte, 100)
	for i := range sigs {
		sigs[i] = []byte(fmt.Sprintf("SIG-%04d-ATTACK", i))
	}
	return sigs
}

// BenchmarkFirst times First, the IDS's per-packet call, at the
// datacenter mix's payload sizes (fig13_dcmix's 64/200/576/1500 B
// frames less 54 header bytes). Payloads are zero-filled, as the
// benchmark's generated traffic is, or random (16 per size, cycled).
// Rule sets are the 100 evaluation signatures (shortest pattern 15
// bytes) and the same set plus a 1-, 2- or 3-byte NOP sled, which
// drives the shortest pattern, and so the skip window, down to that
// length. It fails if First allocates.
func BenchmarkFirst(b *testing.B) {
	type ruleSet struct {
		name     string
		patterns [][]byte
	}
	sets := []ruleSet{{"sigs", evalSignatures()}}
	for l := 1; l <= 3; l++ {
		sets = append(sets, ruleSet{fmt.Sprintf("sled%d", l), append(evalSignatures(), bytes.Repeat([]byte{0x90}, l))})
	}
	rng := rand.New(rand.NewSource(1))
	for _, set := range sets {
		m := New(set.patterns)
		for _, fill := range []string{"zero", "random"} {
			for _, n := range []int{10, 146, 522, 1446} {
				payloads := make([][]byte, 16)
				for i := range payloads {
					payloads[i] = make([]byte, n)
					if fill == "random" {
						rng.Read(payloads[i])
					}
				}
				b.Run(fmt.Sprintf("%s/%s/%dB", set.name, fill, n), func(b *testing.B) {
					if a := testing.AllocsPerRun(100, func() { firstSink = m.First(payloads[0]) }); a != 0 {
						b.Fatalf("First: %v allocs/op, want 0", a)
					}
					b.SetBytes(int64(n))
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						firstSink = m.First(payloads[i&15])
					}
				})
			}
		}
	}
}
