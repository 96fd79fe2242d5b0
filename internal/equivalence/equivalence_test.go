package equivalence

import (
	"math/rand"
	"net/netip"
	"testing"

	"nfp/internal/dataplane"
	"nfp/internal/graph"
	"nfp/internal/nfa"
	"nfp/internal/packet"
)

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
		seq, err := trial.Execute(trial.SeqGraph, packets, seed)
		if err != nil {
			t.Fatalf("trial %d sequential: %v", i, err)
		}
		par, err := trial.Execute(trial.ParGraph, packets, seed)
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

// TestOverloadConservationProperty extends the differential harness to
// overload: random chains of random synthetic NFs run against an
// 8-slot ring under the drop-tail policy, injected through a random
// interleaving of scalar Inject and batched InjectBatch calls. However
// the overload machinery sheds, the conservation law must hold exactly
// — Injected == Outputs + Drops, sheds never exceed drops, and not one
// buffer leaks (ExecuteOverload fails the run on a leak). Both the
// scalar and the burst dataplane are held to it, on the sequential and
// the parallelized compilation.
func TestOverloadConservationProperty(t *testing.T) {
	trials := 12
	packets := 400
	if testing.Short() {
		trials = 4
		packets = 150
	}
	rng := rand.New(rand.NewSource(20260806))
	shedding := 0
	for i := 0; i < trials; i++ {
		trial, err := NewTrial(rng)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		for _, burst := range []int{1, 32} {
			for gi, g := range []graph.Node{trial.SeqGraph, trial.ParGraph} {
				_, st, err := trial.ExecuteOverload(g, packets, int64(4000+i), OverloadSpec{
					RingSize: 8, Policy: dataplane.BPDropTail, Burst: burst,
				})
				if err != nil {
					t.Fatalf("trial %d burst %d graph %d: %v", i, burst, gi, err)
				}
				if st.Injected != uint64(packets) {
					t.Fatalf("trial %d burst %d graph %d: injected %d of %d",
						i, burst, gi, st.Injected, packets)
				}
				if st.Outputs+st.Drops != st.Injected {
					t.Errorf("trial %d burst %d graph %d: conservation broken: injected=%d outputs=%d drops=%d sheds=%d",
						i, burst, gi, st.Injected, st.Outputs, st.Drops, st.Sheds)
				}
				// Sheds are the drops charged to a shed cause, so the
				// bound holds on the parallel compilation too.
				if st.Sheds > st.Drops {
					t.Errorf("trial %d burst %d graph %d: sheds=%d exceed drops=%d",
						i, burst, gi, st.Sheds, st.Drops)
				}
				if st.Sheds > 0 {
					shedding++
				}
			}
		}
	}
	// The rings must actually overflow in a decent share of runs, or
	// the property is vacuous.
	if shedding == 0 {
		t.Error("no run shed anything; overload generator too weak")
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
			scalar, err := trial.ExecuteBurst(g.g, packets, seed, 1)
			if err != nil {
				t.Fatalf("trial %d %s burst=1: %v", i, g.name, err)
			}
			burst, err := trial.ExecuteBurst(g.g, packets, seed, 32)
			if err != nil {
				t.Fatalf("trial %d %s burst=32: %v", i, g.name, err)
			}
			if diffs := Compare(scalar, burst); len(diffs) != 0 {
				t.Errorf("trial %d %s graph: burst=32 NOT equivalent to burst=1\nchain: %v\ngraph: %v\nviolations: %v",
					i, g.name, trial.Chain, g.g, diffs)
			}
			if scalar.Copies != burst.Copies {
				t.Errorf("trial %d %s graph: copies %d at burst=1, %d at burst=32",
					i, g.name, scalar.Copies, burst.Copies)
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
		seq, err := trial.Execute(trial.SeqGraph, 80, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		par, err := trial.Execute(trial.ParGraph, 80, int64(i))
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
				pipelined, _, err := trial.ExecuteOpts(g, packets, seed, ExecOptions{
					Burst: burst, Fusion: dataplane.FusionOff,
				})
				if err != nil {
					t.Fatalf("trial %d burst %d graph %d pipelined: %v", i, burst, gi, err)
				}
				fused, _, err := trial.ExecuteOpts(g, packets, seed, ExecOptions{
					Burst: burst, Fusion: dataplane.FusionOn,
				})
				if err != nil {
					t.Fatalf("trial %d burst %d graph %d fused: %v", i, burst, gi, err)
				}
				if diffs := Compare(pipelined, fused); len(diffs) != 0 {
					t.Errorf("trial %d burst %d graph %d: fused NOT equivalent to pipelined\nchain: %v\nviolations: %v",
						i, burst, gi, trial.Chain, diffs)
				}
				if pipelined.Copies != fused.Copies {
					t.Errorf("trial %d burst %d graph %d: copies differ: pipelined=%d fused=%d",
						i, burst, gi, pipelined.Copies, fused.Copies)
				}
			}
		}
	}
}

// TestFusionPanicConservation injects a one-shot panic into a
// mid-chain synthetic NF and runs the same trial under both engines:
// the crash window makes digests timing-dependent, so the property
// held here is the conservation law — every injected packet surfaces
// as an output or a drop, with no pool leak (ExecuteOpts fails the
// run on one), under the pipelined and the fused crash boundary alike.
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
				_, st, err := trial.ExecuteOpts(trial.SeqGraph, packets, int64(8000+i), ExecOptions{
					Burst: burst, Fusion: fusion, PanicNF: panicNF, PanicAt: 10,
				})
				if err != nil {
					t.Fatalf("trial %d fusion=%v burst %d: %v", i, fusion, burst, err)
				}
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

// TestFusionOverloadConservation runs the overload property under the
// fused engine for every backpressure policy: whatever the shed/block
// behavior, Injected == Outputs + Drops holds exactly and nothing
// leaks, with fusion on as with fusion off.
func TestFusionOverloadConservation(t *testing.T) {
	trials := 6
	packets := 300
	if testing.Short() {
		trials = 2
		packets = 120
	}
	rng := rand.New(rand.NewSource(20260809))
	policies := []dataplane.BackpressurePolicy{
		dataplane.BPBlock, dataplane.BPDropTail, dataplane.BPShedLowestPriority,
	}
	for i := 0; i < trials; i++ {
		trial, err := NewTrial(rng)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		for _, pol := range policies {
			for _, fusion := range []dataplane.FusionMode{dataplane.FusionOff, dataplane.FusionOn} {
				_, st, err := trial.ExecuteOverload(trial.SeqGraph, packets, int64(9000+i), OverloadSpec{
					RingSize: 8, Policy: pol, Burst: 16, Fusion: fusion,
				})
				if err != nil {
					t.Fatalf("trial %d policy=%v fusion=%v: %v", i, pol, fusion, err)
				}
				if st.Injected != uint64(packets) || st.Outputs+st.Drops != st.Injected {
					t.Errorf("trial %d policy=%v fusion=%v: conservation broken: injected=%d outputs=%d drops=%d sheds=%d",
						i, pol, fusion, st.Injected, st.Outputs, st.Drops, st.Sheds)
				}
			}
		}
	}
}
