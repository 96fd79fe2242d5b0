package equivalence

import (
	"math/rand"
	"testing"

	"nfp/internal/dataplane"
)

// TestFlowCacheEquivalenceProperty is the flow-fast-path correctness
// differential: with the rule table populated (RuleSplit) every
// parseable packet resolves through the microflow cache; with it empty
// the cache is bypassed by construction and every packet takes the
// default route. The two identical graph copies a split run spreads its
// flows over make every compared observation MID-independent, so the
// cache-on run must be observationally identical to the cache-bypassed
// run of the same seed across burst 1/32 × pipelined/fused × shards
// 1/4. Any divergence — a stale entry surviving a table mutation, a hit
// that hands a packet to a MID with no graph, a miscounted outcome class
// — surfaces as a rejected packet or a digest or count difference.
// (That a hit returns the MID the rule list would — which two identical
// copies cannot show — is TestClassifierMatchesReferenceWalk's half, in
// internal/dataplane.) Under -race this also audits the lock-free slot
// discipline.
func TestFlowCacheEquivalenceProperty(t *testing.T) {
	trials := 3
	packets := 200
	if testing.Short() {
		trials = 1
		packets = 80
	}
	rng := rand.New(rand.NewSource(20260810))
	for i := 0; i < trials; i++ {
		trial, err := NewTrial(rng)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		seed := int64(11000 + i)
		for _, shards := range []int{1, 4} {
			for _, burst := range []int{1, 32} {
				for _, fusion := range []dataplane.FusionMode{dataplane.FusionOff, dataplane.FusionOn} {
					opts := ExecShardOptions{
						Shards: shards, Burst: burst, Fusion: fusion,
						RuleSplit: true,
					}
					on, err := trial.ExecuteSharded(trial.ParGraph, packets, seed, opts)
					if err != nil {
						t.Fatalf("trial %d shards=%d burst=%d fusion=%v cache-on: %v", i, shards, burst, fusion, err)
					}
					opts.RuleSplit = false
					off, err := trial.ExecuteSharded(trial.ParGraph, packets, seed, opts)
					if err != nil {
						t.Fatalf("trial %d shards=%d burst=%d fusion=%v cache-off: %v", i, shards, burst, fusion, err)
					}
					if diffs := CompareSharded(off, on); len(diffs) != 0 {
						t.Errorf("trial %d shards=%d burst=%d fusion=%v: cache-on NOT equivalent to cache-off\nchain: %v\nviolations: %v",
							i, shards, burst, fusion, trial.Chain, diffs)
					}
				}
			}
		}
	}
}

// TestFlowCacheChurnEquivalence holds cache-on ≡ cache-bypassed under
// mid-stream rule churn: redirect rules are prepended at several points
// during injection (the §7 elasticity primitive), each one republishing
// the table pointer and thereby invalidating every installed cache
// entry. A cache that served even one packet off a pre-churn entry
// would route it to the wrong MID — invisible to the MID-agnostic
// aggregates because both copies of the graph are identical (the
// dataplane's TestFlowCachePrependRedirectImmediate pins that side);
// what is NOT invisible is any miscount, drop difference, or content
// divergence from a torn or stale lookup.
func TestFlowCacheChurnEquivalence(t *testing.T) {
	trials := 3
	packets := 240
	if testing.Short() {
		trials = 1
		packets = 120
	}
	rng := rand.New(rand.NewSource(20260811))
	for i := 0; i < trials; i++ {
		trial, err := NewTrial(rng)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		seed := int64(12000 + i)
		churns := []int{packets / 4, packets / 2, 3 * packets / 4}
		for _, shards := range []int{1, 4} {
			for _, burst := range []int{1, 32} {
				opts := ExecShardOptions{
					Shards: shards, Burst: burst,
					RuleSplit: true, Churns: churns,
				}
				on, err := trial.ExecuteSharded(trial.ParGraph, packets, seed, opts)
				if err != nil {
					t.Fatalf("trial %d shards=%d burst=%d churn cache-on: %v", i, shards, burst, err)
				}
				opts.RuleSplit, opts.Churns = false, nil
				off, err := trial.ExecuteSharded(trial.ParGraph, packets, seed, opts)
				if err != nil {
					t.Fatalf("trial %d shards=%d burst=%d churn cache-off: %v", i, shards, burst, err)
				}
				if diffs := CompareSharded(off, on); len(diffs) != 0 {
					t.Errorf("trial %d shards=%d burst=%d: churned cache-on NOT equivalent to cache-off\nchain: %v\nviolations: %v",
						i, shards, burst, trial.Chain, diffs)
				}
			}
		}
	}
}

// TestFlowCacheReloadEquivalence crosses the fast path with
// zero-downtime reconfiguration: mid-stream ReloadProvide swaps fire
// while the microflow cache is populated (RuleSplit), and the cache-on
// run must match the cache-bypassed run with the same reloads. Reload
// explicitly invalidates the cache after the generation swap, so a
// packet classified right after the swap can never ride a pre-swap cache
// line into a sealed generation.
func TestFlowCacheReloadEquivalence(t *testing.T) {
	trials := 2
	packets := 240
	if testing.Short() {
		trials = 1
		packets = 120
	}
	rng := rand.New(rand.NewSource(20260812))
	for i := 0; i < trials; i++ {
		trial, err := NewTrial(rng)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		seed := int64(13000 + i)
		for _, shards := range []int{1, 4} {
			opts := ExecShardOptions{
				Shards: shards, Burst: 32, Reloads: 2, RuleSplit: true,
			}
			on, err := trial.ExecuteSharded(trial.ParGraph, packets, seed, opts)
			if err != nil {
				t.Fatalf("trial %d shards=%d reload cache-on: %v", i, shards, err)
			}
			opts.RuleSplit = false
			off, err := trial.ExecuteSharded(trial.ParGraph, packets, seed, opts)
			if err != nil {
				t.Fatalf("trial %d shards=%d reload cache-off: %v", i, shards, err)
			}
			if diffs := CompareSharded(off, on); len(diffs) != 0 {
				t.Errorf("trial %d shards=%d: reloaded cache-on NOT equivalent to cache-off\nchain: %v\nviolations: %v",
					i, shards, trial.Chain, diffs)
			}
		}
	}
}
