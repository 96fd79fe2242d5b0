package equivalence

import (
	"math/rand"
	"net/netip"
	"testing"

	"nfp/internal/core"
	"nfp/internal/dataplane"
	"nfp/internal/graph"
	"nfp/internal/nfa"
	"nfp/internal/packet"
	"nfp/internal/telemetry"
)

// scalarOpts replays packet by packet on the burst-1 dataplane.
var scalarOpts = Options{Config: dataplane.Config{Burst: 1}}

// TestRandomizedEquivalence is the §4.1 result-correctness property
// test: over many random chains of random synthetic NFs, the compiled
// parallel graph must be observationally equivalent to the sequential
// chain — identical outputs, drops, and per-NF observation digests.
func TestRandomizedEquivalence(t *testing.T) {
	trials := 30
	packets := 150
	if testing.Short() {
		trials = 8
		packets = 60
	}
	rng := rand.New(rand.NewSource(20260705))
	parallelized := 0
	for i := 0; i < trials; i++ {
		trial, err := NewTrial(rng)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		if graph.EquivalentLength(trial.ParGraph) < graph.EquivalentLength(trial.SeqGraph) {
			parallelized++
		}
		seed := int64(1000 + i)
		seq, err := trial.Execute(trial.SeqGraph, packets, seed, scalarOpts)
		if err != nil {
			t.Fatalf("trial %d sequential: %v", i, err)
		}
		par, err := trial.Execute(trial.ParGraph, packets, seed, scalarOpts)
		if err != nil {
			t.Fatalf("trial %d parallel: %v", i, err)
		}
		if diffs := Compare(seq, par); len(diffs) != 0 {
			t.Errorf("trial %d NOT equivalent\nchain: %v\nprofiles: %v\nseq graph: %v\npar graph: %v\nviolations: %v",
				i, trial.Chain, trial.Profiles, trial.SeqGraph, trial.ParGraph, diffs)
		}
	}
	// The generator must actually exercise parallelization, or the
	// property is vacuous.
	if parallelized < trials/4 {
		t.Errorf("only %d/%d trials parallelized anything; generator too conservative", parallelized, trials)
	}
}

// TestCostRuleShapesEquivalence: with a cost drawn per NF, random
// chains compile to fully parallel, fully sequentialised and mixed
// graphs, and every shape Compares equal to the NoParallelism
// reference. Trials are drawn from one seed until each shape has run
// `per` times, so the corpus cannot silently lose a shape.
func TestCostRuleShapesEquivalence(t *testing.T) {
	per, packets := 4, 150
	if testing.Short() {
		per, packets = 2, 60
	}
	rng := rand.New(rand.NewSource(20261015))
	ran := map[string]int{}
	for i := 0; i < 1000 && (ran["parallel"] < per || ran["sequential"] < per || ran["mixed"] < per); i++ {
		trial, err := NewTrial(rng)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		shape := shapeOf(trial.Stages)
		if shape == "" || ran[shape] >= per {
			continue
		}
		ran[shape]++
		if joins := graph.MaxDegree(trial.ParGraph) > 1; joins != (shape != "sequential") {
			t.Errorf("trial %d: %s stages %v, but graph %v", i, shape, trial.Stages, trial.ParGraph)
		}
		seed := int64(3000 + i)
		seq, err := trial.Execute(trial.SeqGraph, packets, seed, scalarOpts)
		if err != nil {
			t.Fatalf("trial %d sequential: %v", i, err)
		}
		par, err := trial.Execute(trial.ParGraph, packets, seed, scalarOpts)
		if err != nil {
			t.Fatalf("trial %d %s: %v", i, shape, err)
		}
		if diffs := Compare(seq, par); len(diffs) != 0 {
			t.Errorf("trial %d (%s) NOT equivalent\nprofiles: %v\nstages: %v\nseq graph: %v\npar graph: %v\nviolations: %v",
				i, shape, trial.Profiles, trial.Stages, trial.SeqGraph, trial.ParGraph, diffs)
		}
	}
	for _, shape := range []string{"parallel", "sequential", "mixed"} {
		if ran[shape] < per {
			t.Errorf("%d %s trials in the seeded corpus, want %d", ran[shape], shape, per)
		}
	}
}

// shapeOf names what the cost rule made of a compile's candidate
// stages: "parallel" (all kept), "sequential" (none kept), "mixed", or
// "" when Algorithm 1 offered none.
func shapeOf(stages []core.Stage) string {
	kept := 0
	for _, st := range stages {
		if st.Parallel {
			kept++
		}
	}
	switch {
	case len(stages) == 0:
		return ""
	case kept == len(stages):
		return "parallel"
	case kept == 0:
		return "sequential"
	}
	return "mixed"
}

// TestOverloadConservationProperty: saturation is invisible. A full
// ring backpressures and never loses a packet, so a run on 8-slot rings
// — random chains of random synthetic NFs, injected through a seeded
// interleaving of scalar Inject and batched InjectBatch calls — must
// Compare equal to the same run on default rings: the same outputs,
// drops and observation digests, the same copies, and not one buffer
// leaked (Execute fails the run on a leak). It covers burst 1 and 32,
// the sequential and the parallelized compilation, fusion off and on.
func TestOverloadConservationProperty(t *testing.T) {
	trials := 8
	packets := 400
	if testing.Short() {
		trials = 3
		packets = 150
	}
	rng := rand.New(rand.NewSource(20260806))
	var waits uint64
	for i := 0; i < trials; i++ {
		trial, err := NewTrial(rng)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		for _, burst := range []int{1, 32} {
			for gi, g := range []graph.Node{trial.SeqGraph, trial.ParGraph} {
				for _, fusion := range []dataplane.FusionMode{dataplane.FusionOff, dataplane.FusionOn} {
					cfg := dataplane.Config{Burst: burst, Fusion: fusion}
					ref, err := trial.Execute(g, packets, int64(4000+i), Options{Config: cfg, Interleave: true})
					if err != nil {
						t.Fatalf("trial %d burst %d graph %d fusion=%v default rings: %v", i, burst, gi, fusion, err)
					}
					cfg.RingSize, cfg.Telemetry = 8, telemetry.NewRegistry()
					sat, err := trial.Execute(g, packets, int64(4000+i), Options{Config: cfg, Interleave: true})
					if err != nil {
						t.Fatalf("trial %d burst %d graph %d fusion=%v 8-slot rings: %v", i, burst, gi, fusion, err)
					}
					if diffs := Compare(ref, sat); len(diffs) != 0 {
						t.Errorf("trial %d burst %d graph %d fusion=%v: saturation changed the result: %v", i, burst, gi, fusion, diffs)
					}
					if ref.Stats.Copies != sat.Stats.Copies {
						t.Errorf("trial %d burst %d graph %d fusion=%v: copies %d on default rings, %d on 8-slot rings",
							i, burst, gi, fusion, ref.Stats.Copies, sat.Stats.Copies)
					}
					waits += cfg.Telemetry.Counter("nfp_backpressure_parks_total").Value() +
						cfg.Telemetry.Counter("nfp_backpressure_yields_total").Value()
				}
			}
		}
	}
	t.Logf("producer waits on 8-slot rings: %d", waits)
	// The 8-slot rings must actually fill, or the property is vacuous.
	if waits == 0 {
		t.Error("no producer ever waited on an 8-slot ring; overload generator too weak")
	}
}

// TestInjectedStreamIgnoresPoolGrants: the injected stream is a function
// of the seed alone. A pool too small to grant a whole interleaved batch
// at once only delays the stream. Sizing a batch by the grant instead
// shifted every later draw of the stream's generator, so one seed
// injected different packets at different pool sizes and a strict
// Compare failed between two correct runs — the overload suite's flake.
func TestInjectedStreamIgnoresPoolGrants(t *testing.T) {
	trial, err := NewTrial(rand.New(rand.NewSource(20260806)))
	if err != nil {
		t.Fatal(err)
	}
	var res [2]*Result
	for i, pool := range []int{4096, 48} {
		cfg := dataplane.Config{Burst: 32, PoolSize: pool}
		if res[i], err = trial.Execute(trial.SeqGraph, 400, 4000, Options{Config: cfg, Interleave: true}); err != nil {
			t.Fatalf("pool %d: %v", pool, err)
		}
	}
	if diffs := Compare(res[0], res[1]); len(diffs) != 0 {
		t.Errorf("a %d-buffer pool changed the injected stream: %d differences, first %v", 48, len(diffs), diffs[0])
	}
}

// TestBurstScalarEquivalence holds the batched fast path to the same
// standard §4.1 holds parallelization: replaying identical traffic at
// burst=32 must be observationally identical to burst=1 — the same
// output bytes per PID, the same drop count, the same per-NF
// observation digests, and the same number of packet copies — on both
// the sequential and the parallelized compilation of random chains.
func TestBurstScalarEquivalence(t *testing.T) {
	trials := 10
	packets := 150
	if testing.Short() {
		trials = 4
		packets = 60
	}
	rng := rand.New(rand.NewSource(20260806))
	for i := 0; i < trials; i++ {
		trial, err := NewTrial(rng)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		seed := int64(7000 + i)
		for _, g := range []struct {
			name string
			g    graph.Node
		}{{"sequential", trial.SeqGraph}, {"parallel", trial.ParGraph}} {
			scalar, err := trial.Execute(g.g, packets, seed, scalarOpts)
			if err != nil {
				t.Fatalf("trial %d %s burst=1: %v", i, g.name, err)
			}
			burst, err := trial.Execute(g.g, packets, seed, Options{Config: dataplane.Config{Burst: 32}})
			if err != nil {
				t.Fatalf("trial %d %s burst=32: %v", i, g.name, err)
			}
			if diffs := Compare(scalar, burst); len(diffs) != 0 {
				t.Errorf("trial %d %s graph: burst=32 NOT equivalent to burst=1\nchain: %v\ngraph: %v\nviolations: %v",
					i, g.name, trial.Chain, g.g, diffs)
			}
			if scalar.Stats.Copies != burst.Stats.Copies {
				t.Errorf("trial %d %s graph: copies %d at burst=1, %d at burst=32",
					i, g.name, scalar.Stats.Copies, burst.Stats.Copies)
			}
		}
	}
}

// TestEquivalenceWithoutDirtyReuse re-runs a slice of the property
// with OP#1 disabled, exercising the all-copies path.
func TestEquivalenceWithoutDirtyReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 6; i++ {
		trial, err := NewTrial(rng)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := trial.Execute(trial.SeqGraph, 80, int64(i), scalarOpts)
		if err != nil {
			t.Fatal(err)
		}
		par, err := trial.Execute(trial.ParGraph, 80, int64(i), scalarOpts)
		if err != nil {
			t.Fatal(err)
		}
		if diffs := Compare(seq, par); len(diffs) != 0 {
			t.Errorf("trial %d violations: %v\n%v vs %v", i, diffs, trial.SeqGraph, trial.ParGraph)
		}
	}
}

func TestSynNFDeterminism(t *testing.T) {
	prof := nfa.Profile{Actions: []nfa.Action{
		nfa.Read(packet.FieldSrcIP), nfa.Write(packet.FieldDstPort),
		nfa.Read(packet.FieldPayload), nfa.Write(packet.FieldPayload),
	}}
	mk := func() *packet.Packet {
		p := packet.Build(packet.BuildSpec{
			SrcIP: netipAddr("10.1.2.3"), DstIP: netipAddr("10.4.5.6"),
			SrcPort: 10, DstPort: 20, Payload: []byte("same input bytes"),
		})
		p.Meta.PID = 42
		return p
	}
	a, b := NewSynNF("x", prof), NewSynNF("x", prof)
	pa, pb := mk(), mk()
	va, vb := a.Process(pa), b.Process(pb)
	if va != vb {
		t.Fatal("verdicts differ")
	}
	if string(pa.Bytes()) != string(pb.Bytes()) {
		t.Error("same input produced different outputs")
	}
	if a.Digest() != b.Digest() {
		t.Error("digests differ for identical processing")
	}
	// A different NF name writes different values.
	c := NewSynNF("y", prof)
	pc := mk()
	c.Process(pc)
	if string(pc.Bytes()) == string(pa.Bytes()) {
		t.Error("distinct NFs produced identical writes")
	}
}

func TestSynNFRespectsProfile(t *testing.T) {
	// An NF with no write actions must never modify the packet; one
	// without Drop must never drop.
	prof := nfa.Profile{Actions: []nfa.Action{
		nfa.Read(packet.FieldSrcIP), nfa.Read(packet.FieldPayload),
	}}
	s := NewSynNF("ro", prof)
	p := packet.Build(packet.BuildSpec{
		SrcIP: netipAddr("10.0.0.1"), DstIP: netipAddr("10.0.0.2"),
		SrcPort: 1, DstPort: 2, Payload: []byte("data"),
	})
	before := append([]byte(nil), p.Bytes()...)
	for i := 0; i < 100; i++ {
		p.Meta.PID = uint64(i)
		if s.Process(p) != 0 {
			t.Fatal("read-only NF dropped")
		}
	}
	if string(before) != string(p.Bytes()) {
		t.Error("read-only NF modified the packet")
	}
	processed, dropped := s.Counts()
	if processed != 100 || dropped != 0 {
		t.Errorf("counts = %d/%d", processed, dropped)
	}
}

func TestGenProfileAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	droppers := 0
	for i := 0; i < 500; i++ {
		prof := GenProfile(rng)
		if len(prof.Actions) == 0 {
			t.Fatal("empty profile generated")
		}
		if prof.Drops() {
			droppers++
		}
		for _, a := range prof.Actions {
			if a.Op == nfa.OpAddRm {
				t.Fatal("generator produced AddRm (implementations don't support it)")
			}
		}
	}
	if droppers < 50 || droppers > 150 {
		t.Errorf("droppers = %d/500, want ≈100", droppers)
	}
}

func netipAddr(s string) netip.Addr { return netip.MustParseAddr(s) }

// TestFusionEquivalenceProperty holds the fused run-to-completion
// engine to the full §4.1 standard: over random chains of random
// synthetic NFs, on both the sequential compilation (which fuses into
// one segment) and the parallelized one (rings survive at every
// branch and join), at burst 1 and 32, the fused execution must be
// observationally identical to the pipelined one — same output bytes
// per PID, same drops, same per-NF observation digests, same copies.
func TestFusionEquivalenceProperty(t *testing.T) {
	trials := 12
	packets := 200
	if testing.Short() {
		trials = 4
		packets = 80
	}
	rng := rand.New(rand.NewSource(20260807))
	for i := 0; i < trials; i++ {
		trial, err := NewTrial(rng)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		seed := int64(7000 + i)
		for _, burst := range []int{1, 32} {
			for gi, g := range []graph.Node{trial.SeqGraph, trial.ParGraph} {
				pipelined, err := trial.Execute(g, packets, seed, Options{
					Config: dataplane.Config{Burst: burst, Fusion: dataplane.FusionOff},
				})
				if err != nil {
					t.Fatalf("trial %d burst %d graph %d pipelined: %v", i, burst, gi, err)
				}
				fused, err := trial.Execute(g, packets, seed, Options{
					Config: dataplane.Config{Burst: burst, Fusion: dataplane.FusionOn},
				})
				if err != nil {
					t.Fatalf("trial %d burst %d graph %d fused: %v", i, burst, gi, err)
				}
				if diffs := Compare(pipelined, fused); len(diffs) != 0 {
					t.Errorf("trial %d burst %d graph %d: fused NOT equivalent to pipelined\nchain: %v\nviolations: %v",
						i, burst, gi, trial.Chain, diffs)
				}
				if pipelined.Stats.Copies != fused.Stats.Copies {
					t.Errorf("trial %d burst %d graph %d: copies differ: pipelined=%d fused=%d",
						i, burst, gi, pipelined.Stats.Copies, fused.Stats.Copies)
				}
			}
		}
	}
}

// TestFusionPanicConservation injects a one-shot panic into a
// mid-chain synthetic NF and runs the same trial under both engines:
// the crash window makes digests timing-dependent, so the property
// held here is the conservation law — every injected packet surfaces
// as an output or a drop, with no pool leak (Execute fails the run on
// one), under the pipelined and the fused crash boundary alike.
func TestFusionPanicConservation(t *testing.T) {
	trials := 6
	packets := 200
	if testing.Short() {
		trials = 2
		packets = 80
	}
	rng := rand.New(rand.NewSource(20260808))
	for i := 0; i < trials; i++ {
		trial, err := NewTrial(rng)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		panicNF := trial.Chain[len(trial.Chain)/2]
		for _, fusion := range []dataplane.FusionMode{dataplane.FusionOff, dataplane.FusionOn} {
			for _, burst := range []int{1, 32} {
				res, err := trial.Execute(trial.SeqGraph, packets, int64(8000+i), Options{
					Config:  dataplane.Config{Burst: burst, Fusion: fusion},
					PanicNF: panicNF, PanicAt: 10,
				})
				if err != nil {
					t.Fatalf("trial %d fusion=%v burst %d: %v", i, fusion, burst, err)
				}
				st := res.Stats
				if st.Injected != uint64(packets) || st.Outputs+st.Drops != st.Injected {
					t.Errorf("trial %d fusion=%v burst %d: conservation broken: injected=%d outputs=%d drops=%d",
						i, fusion, burst, st.Injected, st.Outputs, st.Drops)
				}
				if st.Panics != 1 {
					t.Errorf("trial %d fusion=%v burst %d: panics=%d, want 1", i, fusion, burst, st.Panics)
				}
			}
		}
	}
}

// TestFusionOverloadConservation runs the overload case under the fused
// engine: on 8-slot rings, with a seeded interleaving of scalar and
// batched injects, Injected == Outputs + Drops holds exactly and
// nothing leaks, and the fused run Compares equal to the pipelined run
// on the same saturated rings — a full ring parks its producer rather
// than losing a packet, with fusion on as with fusion off.
func TestFusionOverloadConservation(t *testing.T) {
	trials := 6
	packets := 300
	if testing.Short() {
		trials = 2
		packets = 120
	}
	rng := rand.New(rand.NewSource(20260809))
	for i := 0; i < trials; i++ {
		trial, err := NewTrial(rng)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		var runs [2]*Result
		for fi, fusion := range []dataplane.FusionMode{dataplane.FusionOff, dataplane.FusionOn} {
			res, err := trial.Execute(trial.SeqGraph, packets, int64(9000+i), Options{
				Config:     dataplane.Config{RingSize: 8, Burst: 16, Fusion: fusion},
				Interleave: true,
			})
			if err != nil {
				t.Fatalf("trial %d fusion=%v: %v", i, fusion, err)
			}
			st := res.Stats
			if st.Injected != uint64(packets) || st.Outputs+st.Drops != st.Injected {
				t.Errorf("trial %d fusion=%v: conservation broken: injected=%d outputs=%d drops=%d",
					i, fusion, st.Injected, st.Outputs, st.Drops)
			}
			runs[fi] = res
		}
		if diffs := Compare(runs[0], runs[1]); len(diffs) != 0 {
			t.Errorf("trial %d: fused NOT equivalent to pipelined on 8-slot rings: %v", i, diffs)
		}
	}
}
