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

// trialCosts are the CostNS values NewTrial draws from: unknown, far
// under core's break-even (500 ns, however many light branches a stage
// has) and a Fig 9 heavy branch far over it. The cost rule then keeps
// some stages, turns others into chains and leaves the unknown ones to
// Algorithm 1, so trials cover every shape it can produce.
var trialCosts = []int64{0, 40, 4000}

// Trial is one randomized equivalence experiment.
type Trial struct {
	Chain    []string
	Profiles map[string]nfa.Profile
	// SeqGraph and ParGraph are the two compilations.
	SeqGraph, ParGraph graph.Node
	Warnings           []string
	// Stages is the cost rule's verdict on ParGraph's candidate stages.
	Stages []core.Stage
}

// NewTrial draws a random chain of 2–6 synthetic NFs, each with a cost
// from trialCosts, and compiles it both ways.
func NewTrial(rng *rand.Rand) (*Trial, error) {
	n := 2 + rng.Intn(5)
	t := &Trial{Profiles: map[string]nfa.Profile{}}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("syn%d", i)
		t.Chain = append(t.Chain, name)
		p := GenProfile(rng)
		p.CostNS = trialCosts[rng.Intn(len(trialCosts))]
		t.Profiles[name] = p
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
	t.Warnings, t.Stages = par.Warnings, par.Stages
	return t, nil
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

// Compare checks two single-shard, single-injector runs for the three
// equivalence properties, packet by packet, and returns human-readable
// violations (empty = equivalent).
func Compare(seq, par *Result) []string {
	var out []string
	if seq.Stats.Drops != par.Stats.Drops {
		out = append(out, fmt.Sprintf("drops: sequential %d, parallel %d", seq.Stats.Drops, par.Stats.Drops))
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
