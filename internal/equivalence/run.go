package equivalence

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sync"

	"nfp/internal/dataplane"
	"nfp/internal/faultinject"
	"nfp/internal/graph"
	"nfp/internal/nf"
	"nfp/internal/packet"
)

// Options pins one Execute replay.
type Options struct {
	// Config is handed to dataplane.New as is — every dataplane setting
	// is declared there and nowhere else. The harness fills in only
	// what a zero value leaves open: PoolSize defaults to 512 buffers
	// per shard. Config.Burst also picks the injection path: at most 1
	// injects packet by packet through Inject (a zero Burst still runs
	// the dataplane at its default burst), larger values inject bursts
	// through InjectBatch.
	Config dataplane.Config
	// PanicNF, when non-empty, wraps every instance of that synthetic
	// NF in a fault injector that panics once, at the PanicAt-th packet
	// it sees, so crash recovery can be exercised under either engine.
	// Runs with a panic are compared on conservation laws, not digests:
	// the drop window depends on runtime timing.
	PanicNF string
	PanicAt uint64
	// Interleave mixes scalar Inject and batched InjectBatch calls in a
	// seed-determined order, batch sizes drawn from [1, Config.Burst] —
	// the overload suite's injection pattern. The draws come from the
	// traffic stream's generator, so an interleaved run injects
	// different packets than a plain run of the same seed.
	Interleave bool
	// RuleSplit installs the trial graph a second time under MID 2 and
	// splits traffic between the two identical copies with DstPort
	// rules over a default route, so the classifier's rule lookup — and
	// therefore the microflow cache — is actually exercised. Without it
	// the rule table is empty, every packet takes the default route, and
	// the cache is bypassed by construction. All PID-free observations
	// are MID-independent, so a split run compares equal to an unsplit
	// one of the same seed: that is the flow-fast-path correctness
	// differential, cache engaged against cache structurally out of the
	// path.
	RuleSplit bool
	// Churns lists injection indices at which a redirect rule is
	// prepended mid-stream (the §7 elasticity primitive), each one
	// invalidating every installed cache entry. Requires RuleSplit.
	Churns []int
	// Reloads is how many times, evenly spaced across the injection
	// window, the server hot-swaps MID 1 to a freshly compiled plan of
	// the SAME policy — new config generation, new rings, new SynNF
	// instances — while injection continues through the swap and the old
	// generation's drain. Observations aggregate over every generation's
	// instances, so a run with reloads compared equal to a run without is
	// the §4.1 result-correctness statement for reconfiguration: packets
	// lost, duplicated, rerouted to half-built tables, or finalized
	// against the wrong generation's merge specs all surface as digest
	// differences.
	Reloads int
	// Injectors is how many goroutines inject concurrently (default 1).
	// They draw from one seeded packet stream, so the injected multiset —
	// and the stream indices churns and reloads fire at — are the same
	// for every value; only who classifies which packet, and against
	// which shard's cache at the same time as whom, changes.
	Injectors int
}

// Result is one replay's observable state, in two forms.
//
// The PID-keyed form (Outputs, Digests) compares runs packet by packet
// (Compare). It is only meaningful when PIDs follow injection order:
// one shard and one injector.
//
// The PID-free form (the Flow* and Content* maps, Processed) is what
// sharding, concurrent injection and reloads must preserve (CompareFlows).
// Concurrent injectors classify inline and shards execute concurrently,
// so PID assignment and completion order are timing-dependent; what
// stays fixed is the multiset of observations. All of its digests are
// wrapping sums of FNV hashes: order-independent, duplicate-safe, and
// aggregatable across per-shard and per-generation NF instances.
type Result struct {
	Outputs map[uint64][]byte // PID → final bytes
	Digests map[string]uint64 // NF name → PID-keyed observation digest
	// FlowDigests sums hash(final packet bytes) per output flow key
	// (the 5-tuple the packet leaves with), FlowCounts the per-flow
	// output packet counts — together the "per-flow output digest".
	FlowDigests map[packet.FlowKey]uint64
	FlowCounts  map[packet.FlowKey]uint64
	// ContentDigests aggregates every NF's PID-free observation digest
	// over all of its instances; Processed the packet counts.
	ContentDigests map[string]uint64
	Processed      map[string]uint64
	// Stats is the server's snapshot after the drained stop.
	Stats dataplane.Stats
}

// installRuleSplit installs g a second time under MID 2 and programs a
// DstPort split over the trial traffic (ports 80-83): 80 stays on MID 1
// by explicit rule, 81 and 83 move to MID 2, and 82 rides the default
// route (MID 1) until a churn redirects it.
func installRuleSplit(srv *dataplane.Server, g graph.Node, provide func(int, graph.NF) nf.NF) error {
	if err := srv.AddGraphProvide(2, g, provide); err != nil {
		return err
	}
	cls := srv.Classifier()
	cls.AddRule(dataplane.Match{DstPort: 80}, 1)
	cls.AddRule(dataplane.Match{DstPort: 81}, 2)
	cls.AddRule(dataplane.Match{DstPort: 83}, 2)
	return nil
}

// churnRedirect fires the c-th mid-stream redirect: a prepended rule
// moving the port-82 flows, alternating the target MID so every churn
// actually changes classifications (each prepend shadows the last).
func churnRedirect(srv *dataplane.Server, c int) {
	mid := uint32(2)
	if c%2 == 1 {
		mid = 1
	}
	srv.Classifier().PrependRule(dataplane.Match{DstPort: 82}, mid)
}

// Execute replays n deterministic packets (seeded by trafficSeed)
// through g on a live server built from opts.Config, each shard and
// generation running its own SynNF instances, and captures both forms
// of the observations. It is the package's one replay: it fails on any
// rejected packet, on a broken conservation law or drop ledger after
// the drained stop, and on any pool leak.
//
// The observable results must not depend on the execution engine, the
// burst size, the shard count, the injector count, the microflow cache
// or a same-policy reload; the differential tests hold the dataplane
// to that by comparing Execute runs that differ in one of them.
func (t *Trial) Execute(g graph.Node, n int, trafficSeed int64, opts Options) (*Result, error) {
	cfg := opts.Config
	if cfg.PoolSize == 0 {
		// A whole-server budget: every shard gets PoolSize/Shards.
		cfg.PoolSize = 512 * max(cfg.Shards, 1)
	}
	srv := dataplane.New(cfg)
	// Shard i's SynNFs are only ever invoked from shard i's runtime
	// goroutines (the -race runs of the differential suites hold the
	// dataplane to that). synMu is for reloads, which build their
	// generation's instances on their own goroutines.
	var synMu sync.Mutex
	var syns []*SynNF
	provide := func(_ int, node graph.NF) nf.NF {
		s := NewSynNF(node.Name, t.Profiles[node.Name])
		synMu.Lock()
		syns = append(syns, s)
		synMu.Unlock()
		if node.Name == opts.PanicNF {
			return faultinject.NewPanicNF(s, opts.PanicAt)
		}
		return s
	}
	if err := srv.AddGraphProvide(1, g, provide); err != nil {
		return nil, err
	}
	if opts.RuleSplit {
		if err := installRuleSplit(srv, g, provide); err != nil {
			return nil, err
		}
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	res := &Result{
		Outputs:        map[uint64][]byte{},
		Digests:        map[string]uint64{},
		FlowDigests:    map[packet.FlowKey]uint64{},
		FlowCounts:     map[packet.FlowKey]uint64{},
		ContentDigests: map[string]uint64{},
		Processed:      map[string]uint64{},
	}
	var collected uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := range srv.Output() {
			b := append([]byte(nil), p.Bytes()...)
			res.Outputs[p.Meta.PID] = b
			k, _ := p.FlowKey() // unparseable packets share the zero key
			h := fnv.New64a()
			h.Write(b)
			res.FlowDigests[k] += h.Sum64()
			res.FlowCounts[k]++
			collected++
			p.Free()
		}
	}()

	// One stream feeds every injector. draw fills batch with the next
	// packets of it, reports whether they go through scalar Inject, and
	// fires the events due at the stream position: churns synchronously,
	// capping the batch at the next churn point so with one injector a
	// churn never lands inside a burst's build-inject window; reloads on
	// their own goroutines, so the swap and the old generation's drain
	// genuinely overlap live injection (a synchronous reload would pause
	// the stream — the restart model reloads exist to disprove). The
	// final, empty draw sees next == n and so fires whatever is still
	// due. Batch sizes come from the seed alone: a batch the pool cannot
	// grant whole at once goes in as several, its packets built as their
	// buffers come, so a short grant delays the stream but never shifts
	// the generator's later draws.
	burst := max(cfg.Burst, 1)
	churns := append([]int(nil), opts.Churns...)
	slices.Sort(churns)
	reloadErrs := make(chan error, opts.Reloads)
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(trafficSeed))
	next, churned, reloaded := 0, 0, 0
	// pending is what is left of the batch last drawn, scalar whether it
	// goes through Inject.
	pending, scalar := 0, burst == 1
	draw := func(batch []*packet.Packet) (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		for churned < len(churns) && churns[churned] <= next {
			churnRedirect(srv, churned)
			churned++
		}
		for reloaded < opts.Reloads && next >= (reloaded+1)*n/(opts.Reloads+1) {
			reloaded++
			go func() { reloadErrs <- srv.ReloadProvide(1, g, provide) }()
		}
		if pending == 0 {
			pending = min(len(batch), n-next)
			if churned < len(churns) {
				pending = min(pending, churns[churned]-next)
			}
			scalar = burst == 1
			if opts.Interleave && !scalar && pending > 0 {
				if scalar = rng.Intn(2) == 0; scalar {
					pending = 1
				} else {
					pending = min(pending, 1+rng.Intn(burst))
				}
			}
		}
		got := 0
		for pending > 0 && got == 0 {
			got = srv.Pool().AllocBatch(batch[:pending])
		}
		for _, pkt := range batch[:got] {
			buildRandomPacket(pkt, rng)
		}
		pending -= got
		next += got
		return got, scalar
	}
	inject := func() error {
		batch := make([]*packet.Packet, burst)
		for {
			k, scalar := draw(batch)
			switch {
			case k == 0:
				return nil
			case scalar:
				if !srv.Inject(batch[0]) {
					return fmt.Errorf("classification failed")
				}
			default:
				if acc := srv.InjectBatch(batch[:k]); acc != k {
					return fmt.Errorf("batch classification failed: %d of %d", acc, k)
				}
			}
		}
	}
	injectors := max(opts.Injectors, 1)
	injectErrs := make(chan error, injectors)
	for j := 0; j < injectors; j++ {
		go func() { injectErrs <- inject() }()
	}
	var injectErr error
	for j := 0; j < injectors; j++ {
		if err := <-injectErrs; err != nil {
			injectErr = err
		}
	}
	if injectErr != nil {
		return nil, injectErr
	}
	for i := 0; i < opts.Reloads; i++ {
		if err := <-reloadErrs; err != nil {
			return nil, fmt.Errorf("mid-stream reload: %w", err)
		}
	}
	if gen := srv.Generation(); gen != uint64(1+opts.Reloads) {
		return nil, fmt.Errorf("generation = %d after %d reloads, want %d", gen, opts.Reloads, 1+opts.Reloads)
	}
	srv.Stop()
	<-done
	st := srv.Stats()
	if collected != st.Outputs {
		return nil, fmt.Errorf("collected %d outputs, Stats.Outputs says %d", collected, st.Outputs)
	}
	if err := auditConservation(srv, st); err != nil {
		return nil, err
	}
	res.Stats = st
	for _, s := range syns {
		res.Digests[s.Name()] ^= s.Digest()
		res.ContentDigests[s.Name()] += s.ContentDigest()
		p, _ := s.Counts()
		res.Processed[s.Name()] += p
	}
	if leak := srv.Pool().InUse(); leak != 0 {
		return nil, fmt.Errorf("pool leak after drained stop: %d buffers", leak)
	}
	return res, nil
}

// CompareFlows checks two runs for the PID-free equivalence properties
// (canonically shards=1 against shards=k, or no reload against
// reloads) and returns human-readable violations (empty = equivalent).
func CompareFlows(a, b *Result) []string {
	var out []string
	if a.Stats.Outputs != b.Stats.Outputs {
		out = append(out, fmt.Sprintf("outputs: %d vs %d", a.Stats.Outputs, b.Stats.Outputs))
	}
	if a.Stats.Drops != b.Stats.Drops {
		out = append(out, fmt.Sprintf("drops: %d vs %d", a.Stats.Drops, b.Stats.Drops))
	}
	if a.Stats.Copies != b.Stats.Copies {
		out = append(out, fmt.Sprintf("copies: %d vs %d", a.Stats.Copies, b.Stats.Copies))
	}
	for _, k := range sortedFlowKeys(a.FlowDigests, b.FlowDigests) {
		ac, bc := a.FlowCounts[k], b.FlowCounts[k]
		ad, bd := a.FlowDigests[k], b.FlowDigests[k]
		if ac != bc {
			out = append(out, fmt.Sprintf("flow %v: %d vs %d output packets", k, ac, bc))
		} else if ad != bd {
			out = append(out, fmt.Sprintf("flow %v: output bytes digest differs (%#x vs %#x)", k, ad, bd))
		}
	}
	for name, ad := range a.ContentDigests {
		if bd, ok := b.ContentDigests[name]; !ok || bd != ad {
			out = append(out, fmt.Sprintf("NF %s: observation digest differs (%#x vs %#x)", name, ad, bd))
		}
	}
	for name, ap := range a.Processed {
		if bp := b.Processed[name]; bp != ap {
			out = append(out, fmt.Sprintf("NF %s: processed %d vs %d packets", name, ap, bp))
		}
	}
	return out
}

// sortedFlowKeys returns the union of both maps' keys in
// FlowKey.Compare order, so violation lists are deterministic.
func sortedFlowKeys(a, b map[packet.FlowKey]uint64) []packet.FlowKey {
	keys := make([]packet.FlowKey, 0, len(a)+len(b))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, packet.FlowKey.Compare)
	return keys
}
