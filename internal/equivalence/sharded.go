package equivalence

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"

	"nfp/internal/dataplane"
	"nfp/internal/flow"
	"nfp/internal/graph"
	"nfp/internal/nf"
	"nfp/internal/packet"
)

// ShardedRun is one execution's observable state in the PID-free form
// the sharded differential needs. Concurrent injectors classify inline
// and shards execute concurrently, so PID assignment and completion
// order — and therefore every PID-keyed observation of RunResult — is
// timing-dependent; what sharding must preserve is the multiset of
// observations. All digests here are wrapping sums of FNV hashes:
// order-independent, duplicate-safe, and aggregatable across per-shard
// NF instances.
type ShardedRun struct {
	// FlowDigests sums hash(final packet bytes) per output flow key
	// (the 5-tuple the packet leaves with), FlowCounts the per-flow
	// output packet counts — together the "per-flow output digest".
	FlowDigests map[flow.Key]uint64
	FlowCounts  map[flow.Key]uint64
	Outputs     uint64
	Drops       uint64
	Copies      uint64
	// ContentDigests aggregates every NF's PID-free observation digest
	// over all of its per-shard instances; Processed the packet counts.
	ContentDigests map[string]uint64
	Processed      map[string]uint64
}

// ExecShardOptions pins an ExecuteSharded run.
type ExecShardOptions struct {
	// Shards is the dataplane shard count (default 1).
	Shards int
	// Burst is the dataplane burst size (<=1 injects packet by packet).
	Burst int
	// Fusion selects the execution engine (zero value = FusionOn).
	Fusion dataplane.FusionMode
	// RuleSplit installs the trial graph a second time under MID 2 and
	// splits traffic between the two identical copies with DstPort
	// rules over a default route, so the classifier's rule lookup — and
	// therefore the microflow cache — is actually exercised. Without it
	// the rule table is empty, every packet takes the default route, and
	// the cache is bypassed by construction. All aggregated observations
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

// ExecuteSharded replays n deterministic packets (seeded by
// trafficSeed) through g on a server with opts.Shards shards, each
// shard running its own SynNF instances, and captures the PID-free
// observations. It fails on any rejected packet, and on any pool leak
// after the drained stop.
//
// Holding ExecuteSharded(shards=k) equal to ExecuteSharded(shards=1)
// proves RSS-style flow sharding preserves the §4.1 result-correctness
// principle: same output packets (as per-flow multisets), same drops,
// same copies, and same NF observations — flow state never leaks
// between shards, and no packet is reordered within its flow in a way
// an NF can observe.
func (t *Trial) ExecuteSharded(g graph.Node, n int, trafficSeed int64, opts ExecShardOptions) (*ShardedRun, error) {
	shards := max(opts.Shards, 1)
	// Per-shard instances: shard i's SynNFs are only ever invoked from
	// shard i's runtime goroutines (the -race runs of the differential
	// suite hold the dataplane to that). synMu is for reloads, which
	// build their generation's instances on their own goroutines.
	var synMu sync.Mutex
	syns := make(map[string][]*SynNF, len(t.Profiles))
	srv := dataplane.New(dataplane.Config{
		// A whole-server budget: every shard gets PoolSize/shards.
		PoolSize: 512 * shards,
		Mergers:  2,
		Burst:    opts.Burst,
		Shards:   shards,
		Fusion:   opts.Fusion,
	})
	provide := func(shard int, node graph.NF) nf.NF {
		s := NewSynNF(node.Name, t.Profiles[node.Name])
		synMu.Lock()
		syns[node.Name] = append(syns[node.Name], s)
		synMu.Unlock()
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
	res := &ShardedRun{
		FlowDigests:    map[flow.Key]uint64{},
		FlowCounts:     map[flow.Key]uint64{},
		ContentDigests: map[string]uint64{},
		Processed:      map[string]uint64{},
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := range srv.Output() {
			k, kerr := flow.FromPacket(p)
			if kerr != nil {
				k = flow.Key{}
			}
			h := fnv.New64a()
			h.Write(p.Bytes())
			res.FlowDigests[k] += h.Sum64()
			res.FlowCounts[k]++
			res.Outputs++
			p.Free()
		}
	}()

	// One stream feeds every injector. draw fills batch with the next
	// packets of it and fires the events due at the stream position:
	// churns synchronously, capping the batch at the next churn point so
	// with one injector a churn never lands inside a burst's
	// build-inject window; reloads on their own goroutines, so the swap
	// and the old generation's drain genuinely overlap live injection (a
	// synchronous reload would pause the stream — the restart model
	// reloads exist to disprove). The final, empty draw sees next == n
	// and so fires whatever is still due.
	churns := append([]int(nil), opts.Churns...)
	sort.Ints(churns)
	reloadErrs := make(chan error, opts.Reloads)
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(trafficSeed))
	next, churned, reloaded := 0, 0, 0
	draw := func(batch []*packet.Packet) int {
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
		want := min(len(batch), n-next)
		if churned < len(churns) {
			want = min(want, churns[churned]-next)
		}
		for _, pkt := range batch[:want] {
			buildRandomPacket(pkt, rng)
		}
		next += want
		return want
	}
	inject := func() error {
		pool := srv.Pool()
		batch := make([]*packet.Packet, max(opts.Burst, 1))
		for {
			got := pool.AllocBatch(batch)
			for got == 0 {
				got = pool.AllocBatch(batch)
			}
			k := draw(batch[:got])
			pool.FreeBatch(batch[k:got])
			switch {
			case k == 0:
				return nil
			case opts.Burst <= 1:
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
	if err := auditConservation(srv, st); err != nil {
		return nil, err
	}
	res.Drops = st.Drops
	res.Copies = st.Copies
	for name, insts := range syns {
		for _, s := range insts {
			res.ContentDigests[name] += s.ContentDigest()
			p, _ := s.Counts()
			res.Processed[name] += p
		}
	}
	if leak := srv.Pool().InUse(); leak != 0 {
		return nil, fmt.Errorf("pool leak after drained stop: %d buffers", leak)
	}
	return res, nil
}

// CompareSharded checks two runs (canonically shards=1 vs shards=k)
// for the sharded equivalence properties and returns human-readable
// violations (empty = equivalent).
func CompareSharded(one, sharded *ShardedRun) []string {
	var out []string
	if one.Outputs != sharded.Outputs {
		out = append(out, fmt.Sprintf("outputs: %d vs %d", one.Outputs, sharded.Outputs))
	}
	if one.Drops != sharded.Drops {
		out = append(out, fmt.Sprintf("drops: %d vs %d", one.Drops, sharded.Drops))
	}
	if one.Copies != sharded.Copies {
		out = append(out, fmt.Sprintf("copies: %d vs %d", one.Copies, sharded.Copies))
	}
	for _, k := range sortedFlowKeys(one.FlowDigests, sharded.FlowDigests) {
		oc, sc := one.FlowCounts[k], sharded.FlowCounts[k]
		od, sd := one.FlowDigests[k], sharded.FlowDigests[k]
		if oc != sc {
			out = append(out, fmt.Sprintf("flow %v: %d vs %d output packets", k, oc, sc))
		} else if od != sd {
			out = append(out, fmt.Sprintf("flow %v: output bytes digest differs (%#x vs %#x)", k, od, sd))
		}
	}
	for name, od := range one.ContentDigests {
		if sd, ok := sharded.ContentDigests[name]; !ok || sd != od {
			out = append(out, fmt.Sprintf("NF %s: observation digest differs (%#x vs %#x)", name, od, sd))
		}
	}
	for name, op := range one.Processed {
		if sp := sharded.Processed[name]; sp != op {
			out = append(out, fmt.Sprintf("NF %s: processed %d vs %d packets", name, op, sp))
		}
	}
	return out
}

// sortedFlowKeys returns the union of both maps' keys in a stable
// order, so violation lists are deterministic.
func sortedFlowKeys(a, b map[flow.Key]uint64) []flow.Key {
	seen := make(map[flow.Key]bool, len(a)+len(b))
	var keys []flow.Key
	for k := range a {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	for k := range b {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	return keys
}
