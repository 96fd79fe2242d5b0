package sim

import (
	"math"
	"testing"

	"nfp/internal/graph"
	"nfp/internal/nfa"
)

func within(t *testing.T, name string, got, want, tolFrac float64) {
	t.Helper()
	if want == 0 {
		t.Fatalf("%s: zero target", name)
	}
	if math.Abs(got-want)/want > tolFrac {
		t.Errorf("%s = %.2f, want %.2f ±%.0f%%", name, got, want, tolFrac*100)
	}
}

func fwPar(n int) graph.Node {
	if n == 1 {
		return graph.NF{Name: nfa.NFFirewall}
	}
	branches := make([]graph.Node, n)
	for i := range branches {
		branches[i] = graph.NF{Name: nfa.NFFirewall, Instance: i}
	}
	return graph.Par{Branches: branches}
}

func fwChain(n int) []string {
	chain := make([]string, n)
	for i := range chain {
		chain[i] = nfa.NFFirewall
	}
	return chain
}

// TestTable4Calibration pins the model to Table 4: latency and rate of
// OpenNetVM, NFP (all NFs parallel) and BESS for firewall chains of
// length 1–3 at 64B, with n+2 cores (BESS replicas = n+2).
func TestTable4Calibration(t *testing.T) {
	p := DefaultParams()
	wantONVM := []float64{25, 33, 47}
	wantNFP := []float64{23, 27, 31}
	wantBESS := []float64{11.308, 11.370, 11.407}
	for n := 1; n <= 3; n++ {
		within(t, "ONVM latency", p.LatencyONVM(fwChain(n), 64), wantONVM[n-1], 0.15)
		within(t, "NFP latency", p.LatencyGraph(fwPar(n), 64), wantNFP[n-1], 0.10)
		within(t, "BESS latency", p.LatencyRTC(fwChain(n), 64), wantBESS[n-1], 0.05)
	}
	// Rates: BESS reaches line rate (14.7 Mpps), NFP ≈ 10.9 constant,
	// ONVM below NFP and degrading with length.
	for n := 1; n <= 3; n++ {
		within(t, "NFP rate", p.ThroughputGraph(fwPar(n), 64, 2), 10.9, 0.10)
		within(t, "BESS rate", p.ThroughputRTC(fwChain(n), 64, n+2), 14.7, 0.05)
		onvm := p.ThroughputONVM(fwChain(n), 64)
		nfp := p.ThroughputGraph(fwPar(n), 64, 2)
		bess := p.ThroughputRTC(fwChain(n), 64, n+2)
		if !(bess > nfp && nfp > onvm) {
			t.Errorf("n=%d rate ranking: bess=%.1f nfp=%.1f onvm=%.1f", n, bess, nfp, onvm)
		}
	}
}

// TestFig7Shape: sequential chains grow linearly in latency for both
// platforms; NFP holds line rate for every size while ONVM degrades
// with chain length at small packets.
func TestFig7Shape(t *testing.T) {
	p := DefaultParams()
	chain := func(n int) []string {
		c := make([]string, n)
		for i := range c {
			c[i] = nfa.NFL3Fwd
		}
		return c
	}
	var prevNFP, prevONVM float64
	for n := 1; n <= 5; n++ {
		nfp := p.LatencySeqNFP(chain(n), 64)
		onvm := p.LatencyONVM(chain(n), 64)
		if n > 1 && (nfp <= prevNFP || onvm <= prevONVM) {
			t.Errorf("latency not increasing at n=%d", n)
		}
		prevNFP, prevONVM = nfp, onvm
	}
	// NFP achieves line rate at every size (Fig 7b).
	for _, size := range []int{64, 128, 256, 512, 1024, 1500} {
		rate := p.ThroughputSeqNFP(chain(5), size)
		line := lineMpps(size)
		if math.Abs(rate-line)/line > 0.01 {
			t.Errorf("NFP rate at %dB = %.2f, want line %.2f", size, rate, line)
		}
	}
	// ONVM at 64B degrades monotonically with chain length and sits
	// below line rate.
	prev := math.Inf(1)
	for n := 1; n <= 5; n++ {
		r := p.ThroughputONVM(chain(n), 64)
		if r >= prev {
			t.Errorf("ONVM rate not degrading at n=%d: %.2f >= %.2f", n, r, prev)
		}
		if r >= lineMpps(64) {
			t.Errorf("ONVM at line rate for n=%d", n)
		}
		prev = r
	}
	// At 1500B even ONVM reaches line rate (Fig 7b's right edge).
	if r := p.ThroughputONVM(chain(1), 1500); math.Abs(r-lineMpps(1500)) > 0.01 {
		t.Errorf("ONVM at 1500B = %.3f, want line %.3f", r, lineMpps(1500))
	}
}

// TestFig9Shape: the parallel latency benefit grows with NF
// complexity, approaching ~45–50% at 3000 cycles (paper: "around 45%").
func TestFig9Shape(t *testing.T) {
	seq2 := func(cycles int) float64 {
		p := DefaultParams().WithSyntheticCycles(cycles)
		return p.LatencySeqNFP([]string{nfa.NFSynthetic, nfa.NFSynthetic}, 64)
	}
	par2 := func(cycles int) float64 {
		p := DefaultParams().WithSyntheticCycles(cycles)
		g := graph.Par{Branches: []graph.Node{
			graph.NF{Name: nfa.NFSynthetic}, graph.NF{Name: nfa.NFSynthetic, Instance: 1},
		}}
		return p.LatencyGraph(g, 64)
	}
	var prevCut float64
	for _, cycles := range []int{1, 300, 900, 1500, 2100, 2700, 3000} {
		cut := 1 - par2(cycles)/seq2(cycles)
		if cut < prevCut {
			t.Errorf("latency cut shrank at %d cycles: %.3f < %.3f", cycles, cut, prevCut)
		}
		prevCut = cut
	}
	final := 1 - par2(3000)/seq2(3000)
	if final < 0.35 || final > 0.50 {
		t.Errorf("cut at 3000 cycles = %.1f%%, want ≈45%%", final*100)
	}
}

// TestFig11Shape: higher parallelism degree brings a larger latency
// cut (33%→52% no-copy in the paper), but never the theoretical 80%.
func TestFig11Shape(t *testing.T) {
	p := DefaultParams().WithSyntheticCycles(300)
	seq := func(n int) float64 {
		c := make([]string, n)
		for i := range c {
			c[i] = nfa.NFSynthetic
		}
		return p.LatencySeqNFP(c, 64)
	}
	par := func(n int) float64 {
		branches := make([]graph.Node, n)
		for i := range branches {
			branches[i] = graph.NF{Name: nfa.NFSynthetic, Instance: i}
		}
		return p.LatencyGraph(graph.Par{Branches: branches}, 64)
	}
	prev := 0.0
	for d := 2; d <= 5; d++ {
		cut := 1 - par(d)/seq(d)
		if cut <= prev {
			t.Errorf("cut not growing at degree %d: %.3f", d, cut)
		}
		if d == 5 && cut > 0.8 {
			t.Errorf("degree-5 cut %.2f exceeds the theoretical bound", cut)
		}
		prev = cut
	}
	d2 := 1 - par(2)/seq(2)
	d5 := 1 - par(5)/seq(5)
	if d2 < 0.20 || d2 > 0.45 {
		t.Errorf("degree-2 cut = %.1f%%, want ≈33%%", d2*100)
	}
	if d5 < 0.40 || d5 > 0.65 {
		t.Errorf("degree-5 cut = %.1f%%, want ≈52%%", d5*100)
	}
}

// TestFig12Shape: latency tracks the equivalent chain length across
// the six graph structures of Figure 14.
func TestFig12Shape(t *testing.T) {
	p := DefaultParams().WithSyntheticCycles(300)
	mk := func(i int) graph.NF { return graph.NF{Name: nfa.NFSynthetic, Instance: i} }
	graphs := []graph.Node{
		graph.Seq{Items: []graph.Node{mk(0), mk(1), mk(2), mk(3)}},
		graph.Par{Branches: []graph.Node{mk(0), mk(1), mk(2), mk(3)}},
		graph.Seq{Items: []graph.Node{mk(0), graph.Par{Branches: []graph.Node{mk(1), mk(2), mk(3)}}}},
		graph.Seq{Items: []graph.Node{mk(0), graph.Par{Branches: []graph.Node{mk(1), mk(2)}}, mk(3)}},
		graph.Par{Branches: []graph.Node{mk(0), graph.Seq{Items: []graph.Node{mk(1), mk(2), mk(3)}}}},
		graph.Seq{Items: []graph.Node{
			graph.Par{Branches: []graph.Node{mk(0), mk(1)}},
			graph.Par{Branches: []graph.Node{mk(2), mk(3)}},
		}},
	}
	lat := make([]float64, len(graphs))
	for i, g := range graphs {
		lat[i] = p.LatencyGraph(g, 64)
	}
	// Graph 2 (equivalent length 1) is the fastest; graph 1 (length 4)
	// the slowest; graphs with shorter equivalent length are faster.
	if lat[1] >= lat[0] || lat[1] >= lat[4] {
		t.Errorf("graph 2 not fastest: %v", lat)
	}
	for i, g := range graphs {
		if graph.EquivalentLength(g) == 4 && lat[i] != lat[0] {
			t.Errorf("length-4 graphs disagree: %v", lat)
		}
	}
	// Graph 5 (length 3) sees little reduction vs sequential.
	cut5 := 1 - lat[4]/lat[0]
	if cut5 > 0.30 {
		t.Errorf("graph 5 cut = %.1f%%, want small", cut5*100)
	}
	// Ranking by equivalent length.
	type le struct {
		l   int
		lat float64
	}
	var les []le
	for i, g := range graphs {
		les = append(les, le{graph.EquivalentLength(g), lat[i]})
	}
	for _, a := range les {
		for _, b := range les {
			if a.l < b.l && a.lat >= b.lat {
				t.Errorf("length %d latency %.1f not < length %d latency %.1f",
					a.l, a.lat, b.l, b.lat)
			}
		}
	}
}

// TestMergerCapacityCalibration: one merger instance sustains ≈10.7
// Mpps of collected copies at degree 2 (§6.3.3), and two instances
// keep a degree-5 graph at full NF-bound speed.
func TestMergerCapacityCalibration(t *testing.T) {
	p := DefaultParams()
	oneMergerRate := 1 / (p.MergeItemServiceUS * 2)
	within(t, "single merger rate", oneMergerRate, 10.7, 0.05)

	// At degree 4, two mergers keep up with the NF bound; at degree 5
	// they sit within ~80% of it, and doubling mergers restores it.
	nfBound := 1 / (p.NF[nfa.NFFirewall].ServiceUS + p.HopServiceUS)
	g4 := fwPar(4).(graph.Par)
	if with2 := p.ThroughputGraph(g4, 64, 2); with2 < nfBound*0.95 {
		t.Errorf("2 mergers bottleneck degree 4: %.2f < %.2f", with2, nfBound)
	}
	g5 := fwPar(5).(graph.Par)
	with2 := p.ThroughputGraph(g5, 64, 2)
	if with2 < nfBound*0.75 {
		t.Errorf("2 mergers far below NF bound at degree 5: %.2f < %.2f", with2, nfBound)
	}
	with1 := p.ThroughputGraph(g5, 64, 1)
	if with1 >= with2 {
		t.Errorf("1 merger should bottleneck degree 5: %.2f >= %.2f", with1, with2)
	}
	if with4 := p.ThroughputGraph(g5, 64, 4); with4 < nfBound*0.95 {
		t.Errorf("4 mergers still bottleneck degree 5: %.2f", with4)
	}
}

// TestSizeDependentNFs: VPN and IDS latency grows with payload.
func TestSizeDependentNFs(t *testing.T) {
	p := DefaultParams()
	small := p.LatencySeqNFP([]string{nfa.NFVPN}, 64)
	big := p.LatencySeqNFP([]string{nfa.NFVPN}, 1500)
	if big <= small {
		t.Errorf("VPN latency flat in size: %.1f vs %.1f", small, big)
	}
	if p.LatencySeqNFP([]string{nfa.NFL3Fwd}, 1500) !=
		p.LatencySeqNFP([]string{nfa.NFL3Fwd}, 64) {
		t.Error("forwarder latency should be size-independent")
	}
}

// TestUnknownNFDefaultsToFirewall keeps the model total for custom NFs.
func TestUnknownNFDefaultsToFirewall(t *testing.T) {
	p := DefaultParams()
	if p.LatencySeqNFP([]string{"custom"}, 64) != p.LatencySeqNFP([]string{nfa.NFFirewall}, 64) {
		t.Error("unknown NF cost != firewall default")
	}
}

func TestResourceOverheadModel(t *testing.T) {
	// §6.3.1: ro = 64×(d−1)/s.
	cases := []struct {
		size, degree int
		want         float64
	}{
		{64, 2, 1.0},
		{1500, 2, 64.0 / 1500},
		{724, 2, 64.0 / 724},
		{724, 5, 4 * 64.0 / 724},
		{724, 1, 0},
		{0, 2, 0},
	}
	for _, c := range cases {
		if got := ResourceOverhead(c.size, c.degree); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("ro(%d,%d) = %.4f, want %.4f", c.size, c.degree, got, c.want)
		}
	}
	// The paper's datacenter figure: ro ≈ 0.088×(d−1) at mean 724 B.
	got := MeanResourceOverhead(724, 2)
	if math.Abs(got-0.0884) > 0.001 {
		t.Errorf("mean ro = %.4f, want ≈0.088", got)
	}
	if MeanResourceOverhead(724, 5) <= got {
		t.Error("overhead must grow with degree")
	}
	if MeanResourceOverhead(0, 2) != 0 || MeanResourceOverhead(724, 1) != 0 {
		t.Error("degenerate cases not zero")
	}
}

func TestLineRate(t *testing.T) {
	// 64B at 10GbE: 14.88 Mpps; 1500B: 0.822 Mpps.
	if got := LineRatePPS(64) / 1e6; math.Abs(got-14.88) > 0.01 {
		t.Errorf("line rate 64B = %.2f Mpps", got)
	}
	if got := LineRatePPS(1500) / 1e6; math.Abs(got-0.8224) > 0.001 {
		t.Errorf("line rate 1500B = %.4f Mpps", got)
	}
	if LineRatePPS(10) != LineRatePPS(64) {
		t.Error("sub-minimum frames not clamped")
	}
}
