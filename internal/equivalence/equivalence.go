// Package equivalence is a randomized whole-stack validator of the
// paper's result correctness principle (§4.1): "Two NFs can work in
// parallel, if parallel execution of the two NFs results in the same
// processed packet and NF internal states as the sequential service
// composition."
//
// It generates random synthetic NFs (random action profiles with
// faithful, deterministic implementations), compiles random sequential
// chains over them both with and without parallelization, replays
// identical traffic through the live dataplane, and demands:
//
//  1. identical output packets, byte for byte, per packet ID,
//  2. identical drop sets,
//  3. identical per-NF observation digests — every NF read exactly the
//     same field bytes for the same packets in both executions (the
//     "NF internal states" half of the principle).
//
// Any orchestrator bug that parallelizes a dependent pair, any
// copy-group bug that shares a buffer it should not, and any merger
// bug that picks the wrong version shows up as a digest or byte
// mismatch here.
package equivalence

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/netip"

	"nfp/internal/core"
	"nfp/internal/dataplane"
	"nfp/internal/faultinject"
	"nfp/internal/graph"
	"nfp/internal/nf"
	"nfp/internal/nfa"
	"nfp/internal/packet"
	"nfp/internal/policy"
)

// fields a synthetic NF may act on.
var synFields = []packet.Field{
	packet.FieldSrcIP, packet.FieldDstIP,
	packet.FieldSrcPort, packet.FieldDstPort,
	packet.FieldTTL, packet.FieldPayload,
}

// SynNF is a deterministic synthetic network function generated from a
// random action profile. Its behaviour is a pure function of (name,
// bytes of the fields it reads):
//
//   - every Write(F) stores a PRF(name, F, readBytes) value into F,
//   - a Drop profile drops when PRF(name, readBytes) hits a 1-in-8
//     bucket,
//   - the observation digest accumulates PRF(pid, name, readBytes),
//     order-independently (XOR), so two executions can be compared
//     regardless of packet interleaving.
//
// Determinism in the read set is exactly what the result correctness
// principle guarantees the NF may rely on.
type SynNF struct {
	name    string
	profile nfa.Profile

	processed uint64
	dropped   uint64
	digest    uint64
	// contentDigest is the PID-free variant: a wrapping SUM of the raw
	// observations. Summation (not XOR) keeps duplicate observations
	// from cancelling, and commutes — so digests of per-shard instances
	// aggregate by addition, and a sharded run (which assigns PIDs in a
	// timing-dependent order) can still be compared against a
	// single-shard run observation-for-observation.
	contentDigest uint64
}

// NewSynNF builds a synthetic NF for the given profile.
func NewSynNF(name string, profile nfa.Profile) *SynNF {
	profile.Name = name
	return &SynNF{name: name, profile: profile}
}

// Name implements nf.NF.
func (s *SynNF) Name() string { return s.name }

// Profile implements nf.NF.
func (s *SynNF) Profile() nfa.Profile { return s.profile }

// Digest returns the accumulated observation digest.
func (s *SynNF) Digest() uint64 { return s.digest }

// ContentDigest returns the PID-free observation digest (see the field
// comment). Digests of instances executing the same logical NF on
// different shards aggregate by addition.
func (s *SynNF) ContentDigest() uint64 { return s.contentDigest }

// Counts returns (processed, dropped).
func (s *SynNF) Counts() (processed, dropped uint64) { return s.processed, s.dropped }

// Process implements nf.NF.
func (s *SynNF) Process(p *packet.Packet) nf.Verdict {
	s.processed++
	if err := p.Parse(); err != nil {
		return nf.Pass
	}

	// Observe: hash the bytes of every field the profile reads.
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|", s.name)
	for _, a := range s.profile.Actions {
		if a.Op != nfa.OpRead {
			continue
		}
		h.Write([]byte{byte(a.Field)})
		h.Write(p.FieldBytes(a.Field))
	}
	obs := h.Sum64()

	// Fold the observation into the order-independent digest, keyed by
	// packet ID so the same observation of different packets differs.
	ph := fnv.New64a()
	fmt.Fprintf(ph, "%d|%d|", p.Meta.PID, obs)
	s.digest ^= ph.Sum64()
	s.contentDigest += obs

	// Drop decision: a pure function of the observation.
	if s.profile.Drops() && obs%8 == 0 {
		s.dropped++
		return nf.Drop
	}

	// Writes: PRF(name, field, observation) per written field. A
	// well-behaved middlebox leaves the packet wire-valid: a write to
	// any checksum-covered field (tuple or payload) ends with an L4
	// checksum refresh. TTL-only writers skip it — the TTL is outside
	// the pseudo-header.
	refresh := false
	for _, a := range s.profile.Actions {
		if a.Op != nfa.OpWrite {
			continue
		}
		s.writeField(p, a.Field, obs)
		if a.Field != packet.FieldTTL {
			refresh = true
		}
	}
	if refresh {
		p.UpdateL4Checksum()
	}
	return nf.Pass
}

func (s *SynNF) writeField(p *packet.Packet, f packet.Field, obs uint64) {
	wh := fnv.New64a()
	fmt.Fprintf(wh, "w|%s|%d|%d", s.name, f, obs)
	v := wh.Sum64()
	switch f {
	case packet.FieldSrcIP:
		// Stay in 10/8 so firewall-style matches remain stable.
		p.SetSrcIP(netip.AddrFrom4([4]byte{10, byte(v >> 16), byte(v >> 8), byte(v)}))
	case packet.FieldDstIP:
		p.SetDstIP(netip.AddrFrom4([4]byte{10, byte(v >> 16), byte(v >> 8), byte(v)}))
	case packet.FieldSrcPort:
		p.SetSrcPort(uint16(v | 1))
	case packet.FieldDstPort:
		p.SetDstPort(uint16(v | 1))
	case packet.FieldTTL:
		p.SetTTL(uint8(v%200 + 10))
	case packet.FieldPayload:
		pl := p.Payload()
		ks := v
		for i := range pl {
			ks = ks*6364136223846793005 + 1442695040888963407
			pl[i] = byte(ks >> 56)
		}
	}
}

// GenProfile draws a random action profile: each field independently
// gets a read and/or a write; the NF may additionally drop. At least
// one action is guaranteed.
func GenProfile(rng *rand.Rand) nfa.Profile {
	var prof nfa.Profile
	for _, f := range synFields {
		if rng.Float64() < 0.40 {
			prof.Actions = append(prof.Actions, nfa.Read(f))
		}
		if rng.Float64() < 0.15 {
			prof.Actions = append(prof.Actions, nfa.Write(f))
		}
	}
	if rng.Float64() < 0.20 {
		prof.Actions = append(prof.Actions, nfa.Drop())
	}
	if len(prof.Actions) == 0 {
		prof.Actions = append(prof.Actions, nfa.Read(packet.FieldSrcIP))
	}
	return prof
}

// Trial is one randomized equivalence experiment.
type Trial struct {
	Chain    []string
	Profiles map[string]nfa.Profile
	// SeqGraph and ParGraph are the two compilations.
	SeqGraph, ParGraph graph.Node
	Warnings           []string
}

// NewTrial draws a random chain of 2–6 synthetic NFs and compiles it
// both ways.
func NewTrial(rng *rand.Rand) (*Trial, error) {
	n := 2 + rng.Intn(5)
	t := &Trial{Profiles: map[string]nfa.Profile{}}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("syn%d", i)
		t.Chain = append(t.Chain, name)
		t.Profiles[name] = GenProfile(rng)
	}
	lookup := func(name string) (nfa.Profile, bool) {
		p, ok := t.Profiles[name]
		return p, ok
	}
	pol := policy.FromChain(t.Chain...)
	seq, err := core.Compile(pol, lookup, core.Options{NoParallelism: true})
	if err != nil {
		return nil, fmt.Errorf("sequential compile: %w", err)
	}
	par, err := core.Compile(pol, lookup, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("parallel compile: %w", err)
	}
	t.SeqGraph, t.ParGraph = seq.Graph, par.Graph
	t.Warnings = par.Warnings
	return t, nil
}

// RunResult is one execution's observable state.
type RunResult struct {
	Outputs map[uint64][]byte // PID → final bytes
	Drops   uint64
	Digests map[string]uint64 // NF name → observation digest
	Copies  uint64
}

// Execute replays n deterministic packets (seeded by trafficSeed)
// through g on the live dataplane and captures outputs, drops and
// per-NF digests. It runs the dataplane in scalar (burst=1) mode; use
// ExecuteBurst to exercise the batched fast path.
func (t *Trial) Execute(g graph.Node, n int, trafficSeed int64) (*RunResult, error) {
	return t.ExecuteBurst(g, n, trafficSeed, 1)
}

// ExecuteBurst is Execute with the dataplane's burst size pinned. With
// burst > 1 the traffic is also injected through the batched
// AllocBatch/InjectBatch path, so the whole pipeline — classify,
// NF runtimes, mergers — runs at burst granularity. The observable
// results (outputs by PID, drops, digests, copies) must not depend on
// the burst size; the differential tests hold this harness to that.
func (t *Trial) ExecuteBurst(g graph.Node, n int, trafficSeed int64, burst int) (*RunResult, error) {
	res, _, err := t.ExecuteOpts(g, n, trafficSeed, ExecOptions{Burst: burst})
	return res, err
}

// ExecOptions pins the execution-engine knobs of an ExecuteOpts run.
type ExecOptions struct {
	// Burst is the dataplane burst size (<=1 runs the scalar path).
	Burst int
	// Fusion selects the execution engine (zero value = FusionOn).
	// Fused and pipelined runs of the same trial and seed
	// must be observationally identical — the fusion differential
	// tests hold the engine to that.
	Fusion dataplane.FusionMode
	// PanicNF, when non-empty, wraps that synthetic NF in a fault
	// injector that panics once, at the PanicAt-th packet it sees, so
	// crash recovery can be exercised under either engine. Runs with a
	// panic are compared on conservation laws, not digests: the drop
	// window depends on runtime timing.
	PanicNF string
	PanicAt uint64
}

// ExecuteOpts replays n deterministic packets (seeded by trafficSeed)
// through g with the execution engine pinned by opts, and returns the
// run observations plus the server's stats snapshot. It fails if the
// pool leaks buffers after the drained stop.
func (t *Trial) ExecuteOpts(g graph.Node, n int, trafficSeed int64, opts ExecOptions) (*RunResult, dataplane.Stats, error) {
	burst := opts.Burst
	instances := map[graph.NF]nf.NF{}
	syns := map[string]*SynNF{}
	for name, prof := range t.Profiles {
		s := NewSynNF(name, prof)
		syns[name] = s
		if name == opts.PanicNF {
			instances[graph.NF{Name: name}] = faultinject.NewPanicNF(s, opts.PanicAt)
		} else {
			instances[graph.NF{Name: name}] = s
		}
	}
	srv := dataplane.New(dataplane.Config{PoolSize: 512, Mergers: 2, Burst: burst, Fusion: opts.Fusion})
	if err := srv.AddGraphInstances(1, g, instances); err != nil {
		return nil, dataplane.Stats{}, err
	}
	if err := srv.Start(); err != nil {
		return nil, dataplane.Stats{}, err
	}
	res := &RunResult{Outputs: map[uint64][]byte{}, Digests: map[string]uint64{}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := range srv.Output() {
			res.Outputs[p.Meta.PID] = append([]byte(nil), p.Bytes()...)
			p.Free()
		}
	}()
	rng := rand.New(rand.NewSource(trafficSeed))
	if burst <= 1 {
		for i := 0; i < n; i++ {
			pkt := srv.Pool().Get()
			for pkt == nil {
				pkt = srv.Pool().Get()
			}
			buildRandomPacket(pkt, rng)
			if !srv.Inject(pkt) {
				return nil, dataplane.Stats{}, fmt.Errorf("classification failed")
			}
		}
	} else {
		batch := make([]*packet.Packet, burst)
		for i := 0; i < n; {
			want := burst
			if n-i < want {
				want = n - i
			}
			// Partial batches are fine under transient pool pressure —
			// a burst NIC driver hands up short bursts too.
			got := srv.Pool().AllocBatch(batch[:want])
			for got == 0 {
				got = srv.Pool().AllocBatch(batch[:want])
			}
			for j := 0; j < got; j++ {
				buildRandomPacket(batch[j], rng)
			}
			if acc := srv.InjectBatch(batch[:got]); acc != got {
				return nil, dataplane.Stats{}, fmt.Errorf("batch classification failed: %d of %d", acc, got)
			}
			i += got
		}
	}
	srv.Stop()
	<-done
	st := srv.Stats()
	if err := auditConservation(srv, st); err != nil {
		return nil, st, err
	}
	res.Drops = st.Drops
	res.Copies = st.Copies
	for name, s := range syns {
		res.Digests[name] = s.Digest()
	}
	if leak := srv.Pool().InUse(); leak != 0 {
		return nil, st, fmt.Errorf("pool leak after drained stop: %d buffers", leak)
	}
	return res, st, nil
}

// OverloadSpec shapes an ExecuteOverload run: an intentionally
// undersized ring plus a backpressure policy, so the injection pressure
// exceeds what the graph drains and the overload machinery engages.
type OverloadSpec struct {
	RingSize  int
	Policy    dataplane.BackpressurePolicy
	SpinLimit int
	Burst     int
	// Fusion selects the execution engine (zero value =
	// FusionOn); the overload conservation law must hold under both.
	Fusion dataplane.FusionMode
}

// ExecuteOverload replays n deterministic packets through g with the
// ring sized to overload, interleaving scalar Inject and batched
// InjectBatch calls in a seed-determined random order (batch sizes
// drawn from [1, Burst]). It returns the run observations plus the
// server's stats snapshot so callers can check the overload
// conservation law: Injected == Outputs + Drops exactly, with sheds
// accounted inside Drops.
func (t *Trial) ExecuteOverload(g graph.Node, n int, trafficSeed int64, spec OverloadSpec) (*RunResult, dataplane.Stats, error) {
	instances := map[graph.NF]nf.NF{}
	syns := map[string]*SynNF{}
	for name, prof := range t.Profiles {
		s := NewSynNF(name, prof)
		syns[name] = s
		instances[graph.NF{Name: name}] = s
	}
	srv := dataplane.New(dataplane.Config{
		PoolSize: 512, Mergers: 2,
		Burst:      spec.Burst,
		RingSize:   spec.RingSize,
		RingPolicy: spec.Policy,
		SpinLimit:  spec.SpinLimit,
		Fusion:     spec.Fusion,
	})
	if err := srv.AddGraphInstances(1, g, instances); err != nil {
		return nil, dataplane.Stats{}, err
	}
	if err := srv.Start(); err != nil {
		return nil, dataplane.Stats{}, err
	}
	res := &RunResult{Outputs: map[uint64][]byte{}, Digests: map[string]uint64{}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := range srv.Output() {
			res.Outputs[p.Meta.PID] = append([]byte(nil), p.Bytes()...)
			p.Free()
		}
	}()
	rng := rand.New(rand.NewSource(trafficSeed))
	burst := spec.Burst
	if burst < 1 {
		burst = 1
	}
	batch := make([]*packet.Packet, burst)
	for i := 0; i < n; {
		if burst == 1 || rng.Intn(2) == 0 {
			pkt := srv.Pool().Get()
			for pkt == nil {
				pkt = srv.Pool().Get()
			}
			buildRandomPacket(pkt, rng)
			if !srv.Inject(pkt) {
				return nil, dataplane.Stats{}, fmt.Errorf("classification failed")
			}
			i++
			continue
		}
		want := 1 + rng.Intn(burst)
		if n-i < want {
			want = n - i
		}
		got := srv.Pool().AllocBatch(batch[:want])
		for got == 0 {
			got = srv.Pool().AllocBatch(batch[:want])
		}
		for j := 0; j < got; j++ {
			buildRandomPacket(batch[j], rng)
		}
		if acc := srv.InjectBatch(batch[:got]); acc != got {
			return nil, dataplane.Stats{}, fmt.Errorf("batch classification failed: %d of %d", acc, got)
		}
		i += got
	}
	srv.Stop()
	<-done
	st := srv.Stats()
	if err := auditConservation(srv, st); err != nil {
		return nil, st, err
	}
	res.Drops = st.Drops
	res.Copies = st.Copies
	for name, s := range syns {
		res.Digests[name] = s.Digest()
	}
	if leak := srv.Pool().InUse(); leak != 0 {
		return nil, st, fmt.Errorf("pool leak after drained stop: %d buffers", leak)
	}
	return res, st, nil
}

// buildRandomPacket fills pkt with a deterministic random TCP packet.
func buildRandomPacket(pkt *packet.Packet, rng *rand.Rand) {
	payload := make([]byte, 16+rng.Intn(128))
	rng.Read(payload)
	packet.BuildInto(pkt, packet.BuildSpec{
		SrcIP:   netip.AddrFrom4([4]byte{10, byte(rng.Intn(4)), byte(rng.Intn(4)), byte(1 + rng.Intn(8))}),
		DstIP:   netip.AddrFrom4([4]byte{10, 100, 0, byte(1 + rng.Intn(4))}),
		Proto:   packet.ProtoTCP,
		SrcPort: uint16(1024 + rng.Intn(64)),
		DstPort: uint16(80 + rng.Intn(4)),
		TTL:     64,
		Payload: payload,
	})
}

// Compare checks two runs for the three equivalence properties and
// returns human-readable violations (empty = equivalent).
func Compare(seq, par *RunResult) []string {
	var out []string
	if seq.Drops != par.Drops {
		out = append(out, fmt.Sprintf("drops: sequential %d, parallel %d", seq.Drops, par.Drops))
	}
	if len(seq.Outputs) != len(par.Outputs) {
		out = append(out, fmt.Sprintf("output count: sequential %d, parallel %d",
			len(seq.Outputs), len(par.Outputs)))
	}
	for pid, sb := range seq.Outputs {
		pb, ok := par.Outputs[pid]
		if !ok {
			out = append(out, fmt.Sprintf("pid %d missing from parallel output", pid))
			continue
		}
		if string(sb) != string(pb) {
			out = append(out, fmt.Sprintf("pid %d bytes differ (%d vs %d bytes)", pid, len(sb), len(pb)))
		}
	}
	for name, sd := range seq.Digests {
		if pd, ok := par.Digests[name]; !ok || pd != sd {
			out = append(out, fmt.Sprintf("NF %s observation digest differs (%#x vs %#x)", name, sd, pd))
		}
	}
	return out
}
