package main

import (
	"math"
	"slices"

	"nfp/internal/packet"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending slice: the smallest sample with at least p% of the
// samples at or below it. It returns 0 for an empty slice.
func percentile(sorted []uint32, p float64) uint32 {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps a product that is a whole number in exact
	// arithmetic (99.9% of 10000) from rounding up to the next rank.
	rank := int(math.Ceil(p*float64(len(sorted))/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailPercentiles are the percentiles a latency report may quote, low
// to high, each with the share of samples beyond it as one in beyond.
var tailPercentiles = []struct {
	p      float64
	beyond int
}{{50, 2}, {90, 10}, {99, 100}, {99.9, 1000}, {99.99, 10000}}

// supportedPercentile returns the highest of tailPercentiles that still
// has at least ten of the n samples beyond it — a percentile resting on
// fewer is one or two outliers, not a measurement. It returns 0 when
// not even the median qualifies.
func supportedPercentile(n int) float64 {
	best := 0.0
	for _, t := range tailPercentiles {
		if n >= 10*t.beyond {
			best = t.p
		}
	}
	return best
}

// median returns the middle value of xs (mean of the two middle values
// for an even count) without reordering the caller's slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// mark is one collector checkpoint: n packets had completed at time ts
// (unix nanoseconds).
type mark struct {
	ts int64
	n  uint64
}

// sliceRates turns consecutive checkpoints into one packets-per-second
// figure per slice.
func sliceRates(marks []mark) []float64 {
	var out []float64
	for i := 1; i < len(marks); i++ {
		dt := float64(marks[i].ts-marks[i-1].ts) / 1e9
		if dt <= 0 {
			continue
		}
		out = append(out, float64(marks[i].n-marks[i-1].n)/dt)
	}
	return out
}

// quartileSpread is the driver's steadiness figure: the distance
// between the first and third quartile as a share of the median, with
// the quartiles Python's statistics.quantiles(values, n=4) returns
// (the exclusive method).
func quartileSpread(values []float64) float64 {
	s := slices.Clone(values)
	slices.Sort(s)
	m := len(s)
	if m < 2 {
		return 0
	}
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// flowDigest is the order-independent fingerprint of the packets one
// flow emitted: how many, and the wrapping sum of their byte hashes.
// Addition commutes, so two runs that emit the same multiset of packets
// in different interleavings produce the same digest.
type flowDigest struct {
	count uint64
	sum   uint64
}

// digest fingerprints a server's output per flow (the 5-tuple a packet
// leaves with).
type digest map[packet.FlowKey]flowDigest

func (d digest) add(p *packet.Packet) {
	k, _ := p.FlowKey() // unparseable output lands on the zero key and still counts
	h := uint64(14695981039346656037)
	for _, b := range p.Bytes() {
		h = (h ^ uint64(b)) * 1099511628211
	}
	fd := d[k]
	fd.count++
	fd.sum += h
	d[k] = fd
}

// diff counts the packets on flows whose digests disagree between d and
// ref (flows missing on one side count with the other side's packets).
func (d digest) diff(ref digest) uint64 {
	var bad uint64
	for k, a := range d {
		if b, ok := ref[k]; !ok || a != b {
			bad += max(a.count, b.count)
		}
	}
	for k, b := range ref {
		if _, ok := d[k]; !ok {
			bad += b.count
		}
	}
	return bad
}
