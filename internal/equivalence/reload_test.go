package equivalence

import (
	"math/rand"
	"testing"

	"nfp/internal/dataplane"
)

// TestReloadEquivalenceProperty is the reload-equivalence differential
// suite: a run that hot-swaps to the SAME policy mid-stream (twice,
// spaced across the injection window) must be observationally
// identical to a run that never reloads — same per-flow output
// digests, same drops, same copies, and same aggregate NF
// observations — across the scalar and burst injection paths, both
// execution engines, and both shard layouts. SynNF is a pure function
// of packet bytes, so equality is exact: the only way a reload can
// perturb these digests is by losing, duplicating, or misrouting a
// packet across the generation swap.
//
// Run with -race (CI does) this doubles as the strongest
// generation-isolation check: old- and new-generation SynNF instances
// are unsynchronized, so a packet executing on a torn-down runtime is
// a reported data race, not just a digest diff.
func TestReloadEquivalenceProperty(t *testing.T) {
	trials := 6
	packets := 200
	if testing.Short() {
		trials = 2
		packets = 80
	}
	rng := rand.New(rand.NewSource(20260811))
	for i := 0; i < trials; i++ {
		trial, err := NewTrial(rng)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		seed := int64(9800 + i)
		for _, burst := range []int{1, 32} {
			for _, fusion := range []dataplane.FusionMode{dataplane.FusionOff, dataplane.FusionOn} {
				for _, shards := range []int{1, 4} {
					base, err := trial.Execute(trial.ParGraph, packets, seed, Options{
						Config: dataplane.Config{Shards: shards, Burst: burst, Fusion: fusion},
					})
					if err != nil {
						t.Fatalf("trial %d burst %d fusion %v shards %d baseline: %v",
							i, burst, fusion, shards, err)
					}
					reloaded, err := trial.Execute(trial.ParGraph, packets, seed, Options{
						Config:  dataplane.Config{Shards: shards, Burst: burst, Fusion: fusion},
						Reloads: 2,
					})
					if err != nil {
						t.Fatalf("trial %d burst %d fusion %v shards %d reload run: %v",
							i, burst, fusion, shards, err)
					}
					if diffs := CompareFlows(base, reloaded); len(diffs) != 0 {
						t.Errorf("trial %d burst %d fusion %v shards %d: reload NOT equivalent\nchain: %v\nprofiles: %v\nviolations: %v",
							i, burst, fusion, shards, trial.Chain, trial.Profiles, diffs)
					}
				}
			}
		}
	}
}

// TestReloadEquivalenceSequentialGraph covers the no-join compilation:
// sequential chains exercise the pure pipeline swap path (no join
// entries straddling generations), which the
// parallel-graph suite above cannot isolate.
func TestReloadEquivalenceSequentialGraph(t *testing.T) {
	trials := 3
	packets := 150
	if testing.Short() {
		trials = 1
		packets = 60
	}
	rng := rand.New(rand.NewSource(20260812))
	for i := 0; i < trials; i++ {
		trial, err := NewTrial(rng)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		seed := int64(9900 + i)
		base, err := trial.Execute(trial.SeqGraph, packets, seed, Options{
			Config: dataplane.Config{Shards: 2, Burst: 8},
		})
		if err != nil {
			t.Fatalf("trial %d baseline: %v", i, err)
		}
		reloaded, err := trial.Execute(trial.SeqGraph, packets, seed, Options{
			Config:  dataplane.Config{Shards: 2, Burst: 8},
			Reloads: 3,
		})
		if err != nil {
			t.Fatalf("trial %d reload run: %v", i, err)
		}
		if diffs := CompareFlows(base, reloaded); len(diffs) != 0 {
			t.Errorf("trial %d: sequential-graph reload NOT equivalent\nchain: %v\nviolations: %v",
				i, trial.Chain, diffs)
		}
	}
}

// TestReloadRunConservation pins the reload harness itself: every
// injected packet must surface exactly once even with reloads
// overlapping injection (outputs + drops == injected), and two
// identical reload runs must produce identical digests.
func TestReloadRunConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	trial, err := NewTrial(rng)
	if err != nil {
		t.Fatal(err)
	}
	const packets = 120
	a, err := trial.Execute(trial.ParGraph, packets, 13, Options{Config: dataplane.Config{Shards: 2}, Reloads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.Outputs+a.Stats.Drops != packets {
		t.Fatalf("conservation across reloads: outputs=%d drops=%d injected=%d", a.Stats.Outputs, a.Stats.Drops, packets)
	}
	b, err := trial.Execute(trial.ParGraph, packets, 13, Options{Config: dataplane.Config{Shards: 2}, Reloads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if diffs := CompareFlows(a, b); len(diffs) != 0 {
		t.Fatalf("identical reload runs differ: %v", diffs)
	}
}
