package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Histogram bucket geometry: values below subCount land in exact
// unit-wide buckets; above, each power-of-two octave splits into
// subCount log-spaced buckets, so the relative bucket width — and hence
// the worst-case percentile error — is 1/subCount = 12.5%. The layout
// is HdrHistogram's, shrunk to a flat array a single atomic add indexes.
const (
	subBits    = 3
	subCount   = 1 << subBits
	numBuckets = (64-subBits)*subCount + subCount // covers all of uint64
)

// bucketIndex maps a value to its bucket. Indices are contiguous and
// monotone in v.
func bucketIndex(v uint64) int {
	if v < subCount {
		return int(v)
	}
	k := uint(bits.Len64(v)) - (subBits + 1)
	return int(k+1)*subCount + int((v>>k)&(subCount-1))
}

// bucketBounds returns the inclusive [lo, hi] value range of bucket i.
func bucketBounds(i int) (lo, hi uint64) {
	if i < subCount {
		return uint64(i), uint64(i)
	}
	k := uint(i/subCount) - 1
	lo = (subCount + uint64(i%subCount)) << k
	return lo, lo + (1 << k) - 1
}

// Histogram is a lock-free fixed-bucket latency histogram in
// nanoseconds. Record is one atomic add into a log-scaled bucket plus
// the count/sum/min/max bookkeeping — cheap enough for per-packet
// service times. Histograms with the same geometry (all of them) merge
// by bucket-wise addition.
type Histogram struct {
	counts [numBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64
	min    atomic.Uint64 // stores ^value so zero means "unset"
	max    atomic.Uint64
}

// NewHistogram creates an unregistered histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Record adds one nanosecond sample. Negative samples clamp to zero.
// Safe on a nil receiver.
func (h *Histogram) Record(ns int64) {
	if h == nil {
		return
	}
	v := uint64(0)
	if ns > 0 {
		v = uint64(ns)
	}
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if cur != 0 && ^cur <= v || h.min.CompareAndSwap(cur, ^v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of recorded samples. Safe on nil.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// HistSnapshot is a consistent-enough copy of a histogram for
// percentile extraction (buckets copied one atomic load at a time).
type HistSnapshot struct {
	Counts [numBuckets]uint64
	Count  uint64
	Sum    uint64
	Min    uint64
	Max    uint64
}

// Snapshot copies the histogram state. Safe on a nil receiver.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	if m := h.min.Load(); m != 0 {
		s.Min = ^m
	}
	s.Max = h.max.Load()
	return s
}

// Percentile returns the p-th percentile (0 < p <= 100) in nanoseconds
// using the equal-rank definition: the sample of rank ceil(p/100·n). The returned value is the containing bucket's
// upper bound clamped to the observed min/max, so the worst-case error
// versus the exact sample is the bucket's relative width (≤12.5%).
func (s *HistSnapshot) Percentile(p float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p / 100 * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := range s.Counts {
		cum += s.Counts[i]
		if cum >= rank {
			_, hi := bucketBounds(i)
			if hi > s.Max {
				hi = s.Max
			}
			if hi < s.Min {
				hi = s.Min
			}
			return hi
		}
	}
	return s.Max
}

// Mean returns the average sample in nanoseconds.
func (s *HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// CountAbove returns how many recorded samples exceeded v. Samples
// landing in the bucket containing v are counted only when the whole
// bucket lies above v, so the result under-counts by at most one
// bucket's population (relative bucket width ≤12.5%) — the
// conservative direction for SLO violation accounting.
func (s *HistSnapshot) CountAbove(v uint64) uint64 {
	var n uint64
	for i := bucketIndex(v) + 1; i < numBuckets; i++ {
		n += s.Counts[i]
	}
	return n
}

// DeltaFrom returns the histogram of samples recorded since old was
// taken: bucket-wise, count and sum differences. Both snapshots must
// come from the same (monotone) histogram; a mismatched or newer old
// yields saturating zeros rather than wrapping. Min/Max carry over from
// the newer snapshot — they are lifetime extremes, so window
// percentiles clamp slightly wider than the true window extremes.
func (s HistSnapshot) DeltaFrom(old HistSnapshot) HistSnapshot {
	d := HistSnapshot{Min: s.Min, Max: s.Max}
	for i := range s.Counts {
		if s.Counts[i] > old.Counts[i] {
			d.Counts[i] = s.Counts[i] - old.Counts[i]
		}
	}
	if s.Count > old.Count {
		d.Count = s.Count - old.Count
	}
	if s.Sum > old.Sum {
		d.Sum = s.Sum - old.Sum
	}
	return d
}
