package main

import (
	"math"
	"net/netip"
	"testing"

	"nfp/internal/packet"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []uint32{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want uint32
	}{
		{50, 50}, {90, 90}, {91, 100}, {99.9, 100}, {100, 100}, {10, 10}, {1, 10}, {0.001, 10},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]uint32{}, 50); got != 0 {
		t.Errorf("percentile of no samples = %d, want 0", got)
	}
	if got := percentile([]uint32{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %d, want 7", got)
	}
}

// A percentile is quoted only when at least ten samples lie beyond it.
func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99},
		{9999, 99}, {10000, 99.9}, {99999, 99.9}, {100000, 99.99},
	} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSliceRates(t *testing.T) {
	// Five one-second slices; the third is a stall.
	marks := []mark{
		{ts: 0, n: 0},
		{ts: 1e9, n: 1000},
		{ts: 2e9, n: 2100},
		{ts: 3e9, n: 2110},
		{ts: 4e9, n: 3110},
		{ts: 5e9, n: 4010},
	}
	rates := sliceRates(marks)
	want := []float64{1000, 1100, 10, 1000, 900}
	if len(rates) != len(want) {
		t.Fatalf("got %d slices, want %d", len(rates), len(want))
	}
	for i := range want {
		if math.Abs(rates[i]-want[i]) > 1e-9 {
			t.Errorf("slice %d = %v, want %v", i, rates[i], want[i])
		}
	}
	// Slices use the checkpoints' own timestamps, not nominal lengths.
	if got := sliceRates([]mark{{0, 0}, {2e9, 1000}}); got[0] != 500 {
		t.Errorf("2 s slice rate = %v, want 500", got[0])
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

// A latency percentile is the best slice's: slices in a slower mode,
// however many, do not move it.
func TestLatencySlices(t *testing.T) {
	fast := []uint32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	usual := []uint32{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}
	slow := []uint32{100, 110, 120, 130, 140, 150, 160, 170, 180, 190}
	l := latencySlices{slow, usual, slow, slow, usual}
	if got := l.best(50); got != 14 {
		t.Errorf("p50 = %v, want 14", got)
	}
	if got := l.best(90); got != 18 {
		t.Errorf("p90 = %v, want 18", got)
	}
	if got := (latencySlices{usual, fast, slow}).best(50); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if total, smallest := (latencySlices{fast, slow[:3]}).count(); total != 13 || smallest != 3 {
		t.Errorf("count = %d, %d, want 13, 3", total, smallest)
	}
}

// quartileSpread must agree with Python's statistics.quantiles(n=4),
// which the driver uses: quantiles(range(1, 11), n=4) is
// [2.75, 5.5, 8.25].
func TestQuartileSpreadMatchesPython(t *testing.T) {
	v := []float64{3, 1, 4, 2, 5, 10, 9, 8, 7, 6}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// quantiles([10, 11, 12, 14, 20], n=4) is [10.5, 12.0, 17.0].
	if got, want := quartileSpread([]float64{20, 10, 12, 11, 14}), (17.0-10.5)/12; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{5, 5, 5, 5}); got != 0 {
		t.Errorf("spread of constants = %v, want 0", got)
	}
}

func testPacket(src byte, payload string) *packet.Packet {
	return packet.Build(packet.BuildSpec{
		SrcIP: netip.AddrFrom4([4]byte{10, 0, 0, src}), DstIP: netip.AddrFrom4([4]byte{10, 100, 0, 1}),
		Proto: packet.ProtoTCP, SrcPort: 1234, DstPort: 80, Payload: []byte(payload),
	})
}

func TestDigestOrderIndependent(t *testing.T) {
	pkts := []*packet.Packet{
		testPacket(1, "alpha"), testPacket(1, "beta"), testPacket(2, "alpha"), testPacket(1, "alpha"),
	}
	a, b := digest{}, digest{}
	for _, p := range pkts {
		a.add(p)
	}
	for i := len(pkts) - 1; i >= 0; i-- {
		b.add(pkts[i])
	}
	if n := a.diff(b); n != 0 {
		t.Errorf("same multiset in another order differs by %d packets", n)
	}
	if len(a) != 2 {
		t.Errorf("digest has %d flows, want 2", len(a))
	}

	// One changed byte on flow 1 is seen, and blamed on flow 1 only.
	c := digest{}
	c.add(testPacket(1, "alphA"))
	c.add(pkts[1])
	c.add(pkts[2])
	c.add(pkts[3])
	if n := a.diff(c); n != 3 {
		t.Errorf("changed payload: diff = %d, want the 3 packets of flow 1", n)
	}
	// A missing packet and a missing flow are seen from either side.
	d := digest{}
	d.add(pkts[0])
	d.add(pkts[1])
	d.add(pkts[3])
	if a.diff(d) != 1 || d.diff(a) != 1 {
		t.Errorf("missing flow: diff = %d / %d, want 1 / 1", a.diff(d), d.diff(a))
	}
}
