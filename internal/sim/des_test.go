package sim

import (
	"math"
	"testing"

	"nfp/internal/graph"
	"nfp/internal/nfa"
)

// TestDESMatchesAnalyticBottleneck: the event-driven simulation's
// saturation throughput must agree with the closed-form bottleneck
// analysis for parallel firewall graphs (which sit below line rate, so
// no cap interferes).
func TestDESMatchesAnalyticBottleneck(t *testing.T) {
	p := DefaultParams()
	for _, degree := range []int{1, 2, 3, 5} {
		g := fwPar(degree)
		analytic := p.ThroughputGraph(g, 64, 2)
		des, err := SaturationMpps(p, g, 64, 2, 20000)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(des-analytic)/analytic > 0.08 {
			t.Errorf("degree %d: DES %.2f Mpps vs analytic %.2f Mpps", degree, des, analytic)
		}
	}
}

// TestDESMergerBottleneck: with a single merger at degree 5, the DES
// must reproduce the analytic merger-bound rate.
func TestDESMergerBottleneck(t *testing.T) {
	p := DefaultParams()
	g := fwPar(5)
	analytic := p.ThroughputGraph(g, 64, 1)
	des, err := SaturationMpps(p, g, 64, 1, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(des-analytic)/analytic > 0.08 {
		t.Errorf("DES %.2f vs analytic %.2f (merger-bound)", des, analytic)
	}
}

// TestDESLatencyKnee: mean latency is flat at low load and explodes as
// the offered rate crosses the bottleneck — the queueing behaviour the
// closed-form model cannot express.
func TestDESLatencyKnee(t *testing.T) {
	p := DefaultParams()
	g := fwPar(2)
	capacity := p.ThroughputGraph(g, 64, 2) // Mpps = pkts/µs

	runAt := func(frac float64) float64 {
		d, err := NewDES(p, g, 64, 2)
		if err != nil {
			t.Fatal(err)
		}
		interval := 1 / (capacity * frac)
		lat, _ := d.Run(8000, interval)
		return lat
	}
	low := runAt(0.3)
	mid := runAt(0.8)
	over := runAt(1.5)
	// Deterministic arrivals below capacity see no queueing at all
	// (D/D/1), so low ≈ mid; overload must explode.
	if low > mid+0.01 || mid >= over {
		t.Errorf("latency not monotone in load: %.4f, %.4f, %.4f", low, mid, over)
	}
	if over < 5*low {
		t.Errorf("no queueing knee: overload latency %.2f vs idle %.2f", over, low)
	}
	// At low load, DES latency ≈ sum of service times (no batching
	// inflation in this model) — small and positive.
	if low <= 0 {
		t.Errorf("idle latency = %.2f", low)
	}
}

// TestDESSequentialVsParallelLatency: at low load the parallel graph's
// service latency is below the sequential chain's.
func TestDESSequentialVsParallelLatency(t *testing.T) {
	p := DefaultParams().WithSyntheticCycles(3000)
	seq := graph.Seq{Items: []graph.Node{
		graph.NF{Name: nfa.NFSynthetic}, graph.NF{Name: nfa.NFSynthetic, Instance: 1},
	}}
	par := graph.Par{Branches: []graph.Node{
		graph.NF{Name: nfa.NFSynthetic}, graph.NF{Name: nfa.NFSynthetic, Instance: 1},
	}}
	run := func(g graph.Node) float64 {
		d, err := NewDES(p, g, 64, 2)
		if err != nil {
			t.Fatal(err)
		}
		lat, _ := d.Run(2000, 10) // well below capacity
		return lat
	}
	seqLat := run(seq)
	parLat := run(par)
	if parLat >= seqLat {
		t.Errorf("parallel %.2fµs not below sequential %.2fµs", parLat, seqLat)
	}
}

// TestDESEmptyRun covers the degenerate path.
func TestDESEmptyRun(t *testing.T) {
	d, err := NewDES(DefaultParams(), fwPar(2), 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	lat, rate := d.Run(0, 1)
	if lat != 0 || rate != 0 {
		t.Errorf("empty run = %.2f, %.2f", lat, rate)
	}
}
