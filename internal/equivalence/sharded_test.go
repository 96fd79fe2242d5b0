package equivalence

import (
	"math/rand"
	"testing"

	"nfp/internal/dataplane"
	"nfp/internal/graph"
)

// TestShardedEquivalenceProperty is the shard-equivalence differential
// suite: over random chains of random synthetic NFs, the sharded
// dataplane (shards=4) must be observationally equivalent to the
// single-shard dataplane — same per-flow output digests, drops, copies
// and NF observations — at burst 1 and 32, on both the sequential and
// the parallelized compilation, under both execution engines.
//
// The comparison is PID-free (see Result): concurrent classifiers
// assign PIDs in timing-dependent order, which is exactly why the
// sharded harness digests multisets instead of PID-keyed maps. Run
// with -race this doubles as the strongest flow-state-locality check:
// per-shard SynNF instances are unsynchronized, so any packet that
// executed on the wrong shard is a reported data race.
func TestShardedEquivalenceProperty(t *testing.T) {
	trials := 10
	packets := 200
	if testing.Short() {
		trials = 3
		packets = 80
	}
	rng := rand.New(rand.NewSource(20260808))
	for i := 0; i < trials; i++ {
		trial, err := NewTrial(rng)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		seed := int64(9000 + i)
		for _, burst := range []int{1, 32} {
			for gi, g := range []graph.Node{trial.SeqGraph, trial.ParGraph} {
				one, err := trial.Execute(g, packets, seed, Options{
					Config: dataplane.Config{Shards: 1, Burst: burst},
				})
				if err != nil {
					t.Fatalf("trial %d burst %d graph %d shards=1: %v", i, burst, gi, err)
				}
				four, err := trial.Execute(g, packets, seed, Options{
					Config: dataplane.Config{Shards: 4, Burst: burst},
				})
				if err != nil {
					t.Fatalf("trial %d burst %d graph %d shards=4: %v", i, burst, gi, err)
				}
				if diffs := CompareFlows(one, four); len(diffs) != 0 {
					t.Errorf("trial %d burst %d graph %d: sharded NOT equivalent\nchain: %v\nprofiles: %v\nviolations: %v",
						i, burst, gi, trial.Chain, trial.Profiles, diffs)
				}
			}
		}
	}
}

// TestShardedFusionEquivalence crosses the two execution axes: a
// sharded fused server must match a single-shard pipelined one — the
// configuration Fig. 14-style scaling actually runs is validated
// against the simplest reference configuration in one hop.
func TestShardedFusionEquivalence(t *testing.T) {
	trials := 5
	packets := 150
	if testing.Short() {
		trials = 2
		packets = 60
	}
	rng := rand.New(rand.NewSource(20260809))
	for i := 0; i < trials; i++ {
		trial, err := NewTrial(rng)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		seed := int64(9500 + i)
		ref, err := trial.Execute(trial.ParGraph, packets, seed, Options{
			Config: dataplane.Config{Shards: 1, Burst: 1, Fusion: dataplane.FusionOff},
		})
		if err != nil {
			t.Fatalf("trial %d reference: %v", i, err)
		}
		got, err := trial.Execute(trial.ParGraph, packets, seed, Options{
			Config: dataplane.Config{Shards: 4, Burst: 32, Fusion: dataplane.FusionOn},
		})
		if err != nil {
			t.Fatalf("trial %d sharded+fused: %v", i, err)
		}
		if diffs := CompareFlows(ref, got); len(diffs) != 0 {
			t.Errorf("trial %d: sharded+fused NOT equivalent to scalar reference\nchain: %v\nviolations: %v",
				i, trial.Chain, diffs)
		}
	}
}

// TestShardedMultiInjectorEquivalence holds inline ingress to its
// concurrency claim: four goroutines calling InjectBatch at once into a
// shards=4 server — each classifying against whichever shard caches its
// burst touches, through a mid-stream PrependRule (which invalidates
// every cache line under them) and one Reload — must be observationally
// equivalent to one goroutine injecting the same stream into shards=1
// with neither event. Under -race this is also the proof that the
// per-shard microflow caches and entry rings tolerate many producers.
func TestShardedMultiInjectorEquivalence(t *testing.T) {
	trials := 6
	packets := 400
	if testing.Short() {
		trials = 2
		packets = 120
	}
	rng := rand.New(rand.NewSource(20260925))
	for i := 0; i < trials; i++ {
		trial, err := NewTrial(rng)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		seed := int64(14000 + i)
		for gi, g := range []graph.Node{trial.SeqGraph, trial.ParGraph} {
			ref, err := trial.Execute(g, packets, seed, Options{
				Config:    dataplane.Config{Shards: 1, Burst: 8},
				RuleSplit: true,
			})
			if err != nil {
				t.Fatalf("trial %d graph %d reference: %v", i, gi, err)
			}
			if ref.Stats.Outputs+ref.Stats.Drops != uint64(packets) {
				t.Fatalf("trial %d graph %d reference: outputs=%d drops=%d injected=%d",
					i, gi, ref.Stats.Outputs, ref.Stats.Drops, packets)
			}
			got, err := trial.Execute(g, packets, seed, Options{
				Config:    dataplane.Config{Shards: 4, Burst: 8},
				RuleSplit: true, Injectors: 4, Churns: []int{packets / 3}, Reloads: 1,
			})
			if err != nil {
				t.Fatalf("trial %d graph %d multi-injector: %v", i, gi, err)
			}
			if diffs := CompareFlows(ref, got); len(diffs) != 0 {
				t.Errorf("trial %d graph %d: 4 injectors x 4 shards NOT equivalent to 1 x 1\nchain: %v\nprofiles: %v\nviolations: %v",
					i, gi, trial.Chain, trial.Profiles, diffs)
			}
		}
	}
}

// TestShardedRunSelfConsistency pins the harness itself: two identical
// single-shard runs must produce identical PID-free observations
// (the PID-free digests really are deterministic), and a run must
// account every packet (outputs + drops == injected).
func TestShardedRunSelfConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	trial, err := NewTrial(rng)
	if err != nil {
		t.Fatal(err)
	}
	const packets = 120
	a, err := trial.Execute(trial.ParGraph, packets, 7, Options{Config: dataplane.Config{Shards: 1}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := trial.Execute(trial.ParGraph, packets, 7, Options{Config: dataplane.Config{Shards: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if diffs := CompareFlows(a, b); len(diffs) != 0 {
		t.Fatalf("identical runs differ: %v", diffs)
	}
	if a.Stats.Outputs+a.Stats.Drops != packets {
		t.Fatalf("conservation: outputs=%d drops=%d injected=%d", a.Stats.Outputs, a.Stats.Drops, packets)
	}
}
