package telemetry

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestBucketBoundaries proves the bucket layout is a partition of the
// value space: indices are contiguous and monotone, and every value
// falls inside its own bucket's bounds.
func TestBucketBoundaries(t *testing.T) {
	// Exact unit buckets below subCount.
	for v := uint64(0); v < subCount; v++ {
		if got := bucketIndex(v); got != int(v) {
			t.Errorf("bucketIndex(%d) = %d, want exact", v, got)
		}
	}
	// Probe around every power of two: bounds must contain the value
	// and indices must never decrease.
	prev := -1
	probe := func(v uint64) {
		i := bucketIndex(v)
		lo, hi := bucketBounds(i)
		if v < lo || v > hi {
			t.Fatalf("value %d outside bucket %d bounds [%d,%d]", v, i, lo, hi)
		}
		if i < prev {
			t.Fatalf("bucketIndex not monotone at %d: %d < %d", v, i, prev)
		}
		prev = i
	}
	for shift := 0; shift < 63; shift++ {
		base := uint64(1) << shift
		for _, off := range []uint64{0, 1, base / 2, base - 1} {
			if off < base {
				probe(base + off)
			}
		}
	}
	// Contiguity: every bucket's upper bound is one below the next
	// bucket's lower bound.
	for i := 0; i < bucketIndex(1<<40); i++ {
		_, hi := bucketBounds(i)
		lo, _ := bucketBounds(i + 1)
		if lo != hi+1 {
			t.Fatalf("gap between buckets %d and %d: hi=%d next lo=%d", i, i+1, hi, lo)
		}
	}
}

// exactPercentile is the equal-rank percentile of sorted samples: the
// sample of rank ceil(p/100·n).
func exactPercentile(sorted []int64, p float64) int64 {
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[max(0, min(idx, len(sorted)-1))]
}

// TestPercentileVsStats checks the histogram's percentile extraction
// against an exact, sample-keeping ground truth (a sorted slice): both
// use equal-rank semantics, so the exact percentile must land in the
// bucket the histogram reports, i.e. within one relative bucket width
// (12.5%).
func TestPercentileVsStats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dist := range []struct {
		name string
		gen  func() int64
	}{
		{"uniform", func() int64 { return 1 + rng.Int63n(1_000_000) }},
		{"heavy-tail", func() int64 {
			v := int64(100)
			for rng.Float64() < 0.7 {
				v *= 3
			}
			return v
		}},
		{"constant", func() int64 { return 5000 }},
	} {
		h := NewHistogram()
		exact := make([]int64, 0, 10000)
		for i := 0; i < 10000; i++ {
			v := dist.gen()
			h.Record(v)
			exact = append(exact, v)
		}
		slices.Sort(exact)
		snap := h.Snapshot()
		for _, p := range []float64{50, 90, 95, 99, 100} {
			want := exactPercentile(exact, p)
			got := snap.Percentile(p)
			// The histogram reports the bucket's upper bound, so got is
			// >= want and within one bucket width above it.
			lo, _ := bucketBounds(bucketIndex(uint64(want)))
			if got < lo {
				t.Errorf("%s p%.0f: histogram %d below exact bucket lower bound %d (exact %d)",
					dist.name, p, got, lo, want)
			}
			_, hi := bucketBounds(bucketIndex(uint64(want)))
			if got > hi && got > uint64(want) {
				// Allowed only via the min/max clamp.
				if got != snap.Max {
					t.Errorf("%s p%.0f: histogram %d beyond exact bucket upper bound %d (exact %d)",
						dist.name, p, got, hi, want)
				}
			}
		}
		if snap.Count != uint64(len(exact)) {
			t.Errorf("%s: count %d != %d", dist.name, snap.Count, len(exact))
		}
	}
}

func TestHistogramMinMaxMean(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{100, 200, 300, 400} {
		h.Record(v)
	}
	s := h.Snapshot()
	if s.Min != 100 || s.Max != 400 {
		t.Errorf("min/max = %d/%d, want 100/400", s.Min, s.Max)
	}
	if s.Mean() != 250 {
		t.Errorf("mean = %f, want 250", s.Mean())
	}
	if s.Sum != 1000 {
		t.Errorf("sum = %d, want 1000", s.Sum)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines;
// run under -race this is the lock-freedom proof, and the final count
// and sum must balance exactly.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	const goroutines, perG = 8, 20000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perG; i++ {
				h.Record(1 + rng.Int63n(1_000_000))
			}
		}(int64(g))
	}
	// Concurrent snapshots must not trip the race detector either.
	for i := 0; i < 10; i++ {
		s := h.Snapshot()
		_ = s.Percentile(99)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Errorf("count = %d, want %d", s.Count, goroutines*perG)
	}
	var bucketSum uint64
	for _, c := range s.Counts {
		bucketSum += c
	}
	if bucketSum != s.Count {
		t.Errorf("bucket sum %d != count %d", bucketSum, s.Count)
	}
}
