package dataplane

import (
	"net/netip"
	"strconv"
	"sync"
	"sync/atomic"

	"nfp/internal/flow"
	"nfp/internal/flowtab"
	"nfp/internal/packet"
	"nfp/internal/ruleindex"
	"nfp/internal/telemetry"
)

// Match is one Classification Table match field set (§5.1). Zero-value
// fields are wildcards; prefixes must be valid when set.
type Match struct {
	SrcPrefix netip.Prefix // zero = any
	DstPrefix netip.Prefix // zero = any
	SrcPort   uint16       // 0 = any
	DstPort   uint16       // 0 = any
	Proto     uint8        // 0 = any
}

// Covers reports whether the match covers a flow key. It is the
// executable spec of a rule: the dataplane matches through the compiled
// index (indexRule), and the tests hold the index to this.
func (m Match) Covers(k flow.Key) bool {
	if m.SrcPrefix.IsValid() && !m.SrcPrefix.Contains(k.SrcIP) {
		return false
	}
	if m.DstPrefix.IsValid() && !m.DstPrefix.Contains(k.DstIP) {
		return false
	}
	if m.SrcPort != 0 && m.SrcPort != k.SrcPort {
		return false
	}
	if m.DstPort != 0 && m.DstPort != k.DstPort {
		return false
	}
	if m.Proto != 0 && m.Proto != k.Proto {
		return false
	}
	return true
}

// indexRule is the match in the rule index's input form. ok is false
// for a match no IPv4 packet can satisfy: one with an IPv6 prefix.
func (m Match) indexRule() (r ruleindex.Rule, ok bool) {
	r = ruleindex.Rule{SrcPorts: ruleindex.AnyPort, DstPorts: ruleindex.AnyPort, Proto: m.Proto}
	ok = true
	if m.SrcPrefix.IsValid() {
		r.Src, ok = ruleindex.FromNetip(m.SrcPrefix)
	}
	if m.DstPrefix.IsValid() && ok {
		r.Dst, ok = ruleindex.FromNetip(m.DstPrefix)
	}
	if m.SrcPort != 0 {
		r.SrcPorts = ruleindex.Port(m.SrcPort)
	}
	if m.DstPort != 0 {
		r.DstPorts = ruleindex.Port(m.DstPort)
	}
	return r, ok
}

// classRule binds a match to a service graph.
type classRule struct {
	match Match
	mid   uint32
}

// Classifier implements §5.1: it takes an incoming packet, finds the
// service graph it belongs to, tags the packet metadata with the MID, a
// fresh PID and version 1, and sends the packet into the entrance of
// the graph.
//
// Rules may be installed at any time — including while traffic flows,
// which is how the §7 elasticity story works ("modify the forwarding
// table to redirect some flows to the new instance"): the table is
// copy-on-write, so the hot lookup path never takes a lock.
type Classifier struct {
	mu      sync.Mutex // serializes writers
	table   atomic.Pointer[classTable]
	nextPID atomic.Uint64

	// Telemetry (nil until bindTelemetry; all methods nil-safe):
	// ruleMatches counts packets matched by an installed rule,
	// defaultHits packets that fell through to the default route, and
	// unmatched rejected packets. dispatch tracks per-MID delivery.
	// rulesG is the live table's rule count; tuplesG the mask-tuple
	// count of the most recently built index, which is what a miss costs.
	reg         *telemetry.Registry
	ruleMatches *telemetry.Counter
	defaultHits *telemetry.Counter
	unmatchedC  *telemetry.Counter
	rulesG      *telemetry.Gauge
	tuplesG     *telemetry.Gauge
	dispatch    atomic.Pointer[map[uint32]*telemetry.Counter]

	// indexBuilds counts rule-index compilations: at most one per rule
	// list that saw a miss, however many tables shared that list.
	indexBuilds atomic.Uint64

	// Flow accounting hook (nil unless Config.FlowAccount wired it):
	// classified packets whose fresh PID flowSampler samples feed the
	// observer with counts pre-scaled by its rate, so sketch estimates
	// approximate true per-flow totals.
	flowObs     FlowObserver
	flowSampler *telemetry.Tracer

	// caches[i] is shard i's exact-match microflow cache (nil slice =
	// no fast path: a zero-value Classifier, as the tests build to hold
	// the cache to the plain lookup). Injector goroutines classify
	// inline, so any number of them may probe and install into one cache
	// at once; each slot's sequence word keeps that safe (fcSlot). Cache
	// hit/miss/eviction counters are amortized per burst like the
	// outcome counters.
	caches     []microCache
	cacheHits  *telemetry.Counter
	cacheMiss  *telemetry.Counter
	cacheEvict *telemetry.Counter
}

// fcSlot is one microflow, inline and pointer-free: the packed key, the
// classification it resolved to, and the generation of the table it was
// computed against. Injectors classify inline, so any number of them
// may probe and install into one cache at once; a per-slot sequence
// word (odd while a writer is inside) makes a probe see a whole entry
// or none, and every field is an atomic so the race detector agrees.
// Staleness is one compare with the live table's generation, so every
// rule mutation (and Reload's republish) invalidates the whole cache
// for free.
type fcSlot struct {
	seq atomic.Uint64
	gen atomic.Uint64 // classTable.gen the entry was computed against; 0 = empty
	a   atomic.Uint64 // flowtab.Pack: source and destination address
	b   atomic.Uint64 // flowtab.Pack: ports and protocol; above them fcViaDefault, MID
}

const (
	fcKeyMask    = 1<<40 - 1
	fcViaDefault = 1 << 40
	fcMIDShift   = 41
)

// load returns the slot's entry; ok is false while a writer is inside
// or when one got in between the reads.
func (s *fcSlot) load() (gen, a, b uint64, ok bool) {
	seq := s.seq.Load()
	gen, a, b = s.gen.Load(), s.a.Load(), s.b.Load()
	return gen, a, b, seq&1 == 0 && s.seq.Load() == seq
}

// store installs an entry, unless another injector is installing into
// the slot right now: then that one's entry will do.
func (s *fcSlot) store(gen, a, b uint64) {
	seq := s.seq.Load()
	if seq&1 != 0 || !s.seq.CompareAndSwap(seq, seq+1) {
		return
	}
	s.gen.Store(gen)
	s.a.Store(a)
	s.b.Store(b)
	s.seq.Store(seq + 2)
}

// microCache is one shard's microflow cache in the OVS EMC mold: a
// power-of-two array of slots, probed two-way — each flow hashes to a
// primary and a secondary slot (disjoint hash bits), so two flows
// colliding on one index coexist instead of thrashing each other with a
// full rule walk per packet. Only when both ways hold live entries does
// an install overwrite in place (cheap eviction); the displaced flow
// simply takes the rule walk again on its next packet, so the cache
// bounds memory, never correctness.
type microCache struct {
	slots []fcSlot
	mask  uint64
}

// bindFlowCache allocates one microflow cache per shard, each with
// slots rounded up to a power of two. Called once by the owning Server
// before traffic flows; a classifier without it (zero value, tests)
// runs the plain rule walk.
func (c *Classifier) bindFlowCache(shards, slots int) {
	if shards < 1 {
		shards = 1
	}
	size := 1
	for size < slots {
		size <<= 1
	}
	c.caches = make([]microCache, shards)
	for i := range c.caches {
		c.caches[i] = microCache{
			slots: make([]fcSlot, size),
			mask:  uint64(size - 1),
		}
	}
	if c.reg != nil {
		c.cacheHits = c.reg.Counter("nfp_classifier_cache_hits_total")
		c.cacheMiss = c.reg.Counter("nfp_classifier_cache_misses_total")
		c.cacheEvict = c.reg.Counter("nfp_classifier_cache_evictions_total")
	}
}

// InvalidateCache force-expires every microflow cache entry by
// republishing the classification table as a new generation: entries
// are stamped with the generation they were computed against, so the
// republish makes all of them stale at once without touching a slot.
// Rule mutations do this implicitly; Server.Reload calls it explicitly
// so a config-generation swap never serves a pre-swap cache line.
func (c *Classifier) InvalidateCache() {
	c.mutate(func(*classTable) {})
}

// bindTelemetry points the classifier's counters at a registry. Called
// once by the owning Server before traffic flows.
func (c *Classifier) bindTelemetry(reg *telemetry.Registry) {
	c.reg = reg
	c.ruleMatches = reg.Counter("nfp_classifier_rule_matches_total")
	c.defaultHits = reg.Counter("nfp_classifier_default_hits_total")
	c.unmatchedC = reg.Counter("nfp_classifier_unmatched_total")
	c.rulesG = reg.Gauge("nfp_classifier_rules")
	c.tuplesG = reg.Gauge("nfp_classifier_tuples")
}

// bindFlowObserver wires flow accounting for the packets sampler
// samples (none when it is nil). Called once by the owning Server before
// traffic flows.
func (c *Classifier) bindFlowObserver(obs FlowObserver, sampler *telemetry.Tracer) {
	c.flowObs = obs
	c.flowSampler = sampler
}

// observeFlow feeds one sampled packet to the flow observer. The
// packet's layout cache is warm or warming anyway (classification just
// parsed it), so FromPacket costs a cache read.
func (c *Classifier) observeFlow(p *packet.Packet) {
	if k, err := flow.FromPacket(p); err == nil {
		rate := c.flowSampler.Rate()
		c.flowObs.ObserveFlow(k, rate, rate*uint64(p.Len()))
	}
}

// midCounter resolves the per-MID dispatch counter, growing the
// copy-on-write map on first sight of a MID so the hot path is one
// pointer load and map read.
func (c *Classifier) midCounter(mid uint32) *telemetry.Counter {
	if m := c.dispatch.Load(); m != nil {
		if ctr, ok := (*m)[mid]; ok {
			return ctr
		}
	}
	if c.reg == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.dispatch.Load()
	if old != nil {
		if ctr, ok := (*old)[mid]; ok {
			return ctr
		}
	}
	next := make(map[uint32]*telemetry.Counter)
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	ctr := c.reg.Counter("nfp_classifier_dispatch_total",
		telemetry.L("mid", strconv.FormatUint(uint64(mid), 10)))
	next[mid] = ctr
	c.dispatch.Store(&next)
	return ctr
}

// classTable is one published version of the Classification Table.
// Versions are immutable once stored, with one licensed exception: the
// backing array of rules is shared along a run of AddRules, and the
// writer fills its spare capacity beyond every published len (see
// AddRule).
type classTable struct {
	gen        uint64 // counts published versions, from 1: what a cache entry is stamped with
	rules      []classRule
	index      *lazyIndex // compiled rules; shared by every version with this rule list
	defaultMID uint32
	hasDefault bool
}

// lazyIndex compiles a rule list on its first miss. bench-style installs
// publish one table per AddRule and never look most of them up, so the
// build is deferred to lookup time; versions that republish an unchanged
// rule list (SetDefault, InvalidateCache) share the holder, so a built
// index is carried over instead of rebuilt.
type lazyIndex struct {
	once sync.Once
	ix   *ruleindex.Index
}

// setRules replaces the rule list, which needs a new index.
func (t *classTable) setRules(rules []classRule) {
	t.rules = rules
	t.index = new(lazyIndex)
}

// ruleIndex returns t's compiled rules, building them if this is the
// first miss against t's rule list. Concurrent missers wait for the one
// build rather than each compiling their own.
func (c *Classifier) ruleIndex(t *classTable) *ruleindex.Index {
	t.index.once.Do(func() {
		t.index.ix = ruleindex.Build(len(t.rules), func(i int) (ruleindex.Rule, bool) {
			return t.rules[i].match.indexRule()
		})
		c.indexBuilds.Add(1)
		c.tuplesG.Set(int64(t.index.ix.Tuples()))
	})
	return t.index.ix
}

// loadTable returns the current table (possibly nil on a fresh
// classifier).
func (c *Classifier) loadTable() *classTable {
	if t := c.table.Load(); t != nil {
		return t
	}
	return &classTable{}
}

// mutate applies fn to a copy of the current version — which shares the
// rule list and its index until fn replaces them — and publishes it.
func (c *Classifier) mutate(fn func(*classTable)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	next := *c.loadTable()
	next.gen++
	fn(&next)
	c.table.Store(&next)
	c.rulesG.Set(int64(len(next.rules)))
}

// AddRule appends a match → MID rule (first match wins). Safe while
// traffic flows.
//
// It is amortised O(1): the new version's rules extend the previous
// version's backing array in place when it has spare capacity. That is
// safe because only this writer, under c.mu, extends the latest
// version; a rule list is never re-sliced shorter (PrependRule and Clear
// start a new array), so every published version sharing the array has
// a len at or below the slot being written and never reads it.
func (c *Classifier) AddRule(m Match, mid uint32) {
	c.mutate(func(t *classTable) {
		t.setRules(append(t.rules, classRule{match: m, mid: mid}))
	})
}

// PrependRule inserts a rule ahead of all existing ones — the §7
// redirect primitive: it takes effect for matching flows immediately.
func (c *Classifier) PrependRule(m Match, mid uint32) {
	c.mutate(func(t *classTable) {
		rules := make([]classRule, 0, len(t.rules)+1)
		t.setRules(append(append(rules, classRule{match: m, mid: mid}), t.rules...))
	})
}

// Clear removes every rule and the default route (tests and full
// reprogramming).
func (c *Classifier) Clear() {
	c.mutate(func(t *classTable) {
		t.setRules(nil)
		t.hasDefault = false
		t.defaultMID = 0
	})
}

// SetDefault routes unmatched traffic to mid. Safe while traffic flows.
func (c *Classifier) SetDefault(mid uint32) {
	c.mutate(func(t *classTable) {
		t.defaultMID = mid
		t.hasDefault = true
	})
}

// Cache probe outcomes of lookupFast.
const (
	fcBypass = iota // cache not consulted (unparseable packet)
	fcHit           // one hash probe resolved the packet
	fcMiss          // rule walk ran; result installed when routable
)

// cacheFor returns the shard's microflow cache, or nil when the fast
// path should not engage: no cache bound, or the rule table is empty —
// the default route is already O(1), and bypassing keeps the no-rules
// hot path byte-identical to the pre-cache dataplane.
func (c *Classifier) cacheFor(t *classTable, shard int) *microCache {
	if c.caches == nil || len(t.rules) == 0 {
		return nil
	}
	return &c.caches[shard]
}

// scanRules is the slow path: the §5.1 first-match lookup through the
// table's compiled index, then the default route. An unparseable packet
// carries no 5-tuple to match and goes straight to the default.
func (c *Classifier) scanRules(t *classTable, p *packet.Packet) (mid uint32, ok, viaDefault bool) {
	if len(t.rules) > 0 {
		if fk, err := p.FlowKey(); err == nil {
			if i := c.ruleIndex(t).Lookup(fk); i >= 0 {
				return t.rules[i].mid, true, false
			}
		}
	}
	if t.hasDefault {
		return t.defaultMID, true, true
	}
	return 0, false, false
}

// lookupFast resolves a packet through the microflow cache: a hit is
// one slot read plus three compares (table generation, packed key); a
// miss runs the rule walk and installs the result — including
// via-default resolutions, which paid for the full failed walk and are
// worth caching — under the current table generation. Unroutable
// results are not installed: the cache holds only flows the dataplane
// will accept.
// Unparseable packets carry no 5-tuple and bypass the cache for
// scanRules' default fallthrough, so outcomes (and therefore counters,
// PIDs and digests) are identical cache-on and cache-off.
func (c *Classifier) lookupFast(t *classTable, mc *microCache, p *packet.Packet) (mid uint32, ok, viaDefault bool, res int) {
	fk, err := p.FlowKey()
	if err != nil {
		mid, ok, viaDefault = c.scanRules(t, p)
		return mid, ok, viaDefault, fcBypass
	}
	h := fk.Hash()
	a, b := flowtab.Pack(fk)
	s1, s2 := &mc.slots[h&mc.mask], &mc.slots[(h>>16)&mc.mask]
	g1, a1, b1, ok1 := s1.load()
	if ok1 && g1 == t.gen && a1 == a && b1&fcKeyMask == b {
		return uint32(b1 >> fcMIDShift), true, b1&fcViaDefault != 0, fcHit
	}
	g2, a2, b2, ok2 := s2.load()
	if ok2 && g2 == t.gen && a2 == a && b2&fcKeyMask == b {
		return uint32(b2 >> fcMIDShift), true, b2&fcViaDefault != 0, fcHit
	}
	mid, ok, viaDefault = c.scanRules(t, p)
	if ok {
		// Install into the primary way unless it holds a live
		// (current-table) entry for another flow and the secondary way
		// is free or stale. Displacing a live entry counts as an
		// eviction; overwriting a stale one is reclamation.
		slot := s1
		if ok1 && g1 == t.gen {
			if !ok2 || g2 != t.gen {
				slot = s2
			} else {
				c.cacheEvict.Add(1)
			}
		}
		b |= uint64(mid) << fcMIDShift
		if viaDefault {
			b |= fcViaDefault
		}
		slot.store(t.gen, a, b)
	}
	return mid, ok, viaDefault, fcMiss
}

// Classify resolves the MID for a packet and stamps its metadata: a
// one-packet ClassifyBatch. It returns false when no rule matches and
// no default is set.
func (c *Classifier) Classify(p *packet.Packet) (uint32, bool) {
	one := [1]*packet.Packet{p}
	if c.ClassifyBatch(one[:]) == 0 {
		return 0, false
	}
	return p.Meta.MID, true
}

// ClassifyBatch resolves and stamps MIDs for a whole burst — the §5.1
// classifier operating at DPDK burst granularity. MIDs and PIDs are
// assigned in burst order and the counter totals are per packet, but
// the telemetry is amortized: one counter add per outcome class per
// burst, and per-MID dispatch counters bumped once per run of same-MID
// packets.
//
// The slice is stably partitioned in place and alloc-free (see
// promote): classified packets (their metadata stamped) keep their
// relative order in pkts[:n]; unmatched packets are compacted to
// pkts[n:]. It returns n.
func (c *Classifier) ClassifyBatch(pkts []*packet.Packet) int {
	return c.ClassifyBatchShard(pkts, 0)
}

// ClassifyBatchShard is ClassifyBatch bound to a specific shard's
// microflow cache: the Server classifies each same-shard run against
// that shard's cache; everything else uses shard 0 via ClassifyBatch.
func (c *Classifier) ClassifyBatchShard(pkts []*packet.Packet, shard int) int {
	t := c.loadTable()
	mc := c.cacheFor(t, shard)
	var ruleHits, defHits, unmatched uint64
	var hits, misses uint64
	var runMID uint32
	var runCnt uint64
	n := 0
	for i, p := range pkts {
		var mid uint32
		var ok, viaDefault bool
		if mc != nil {
			var res int
			mid, ok, viaDefault, res = c.lookupFast(t, mc, p)
			switch res {
			case fcHit:
				hits++
			case fcMiss:
				misses++
			}
		} else {
			mid, ok, viaDefault = c.scanRules(t, p)
		}
		if !ok {
			unmatched++
			continue
		}
		pid := c.nextPID.Add(1) & packet.MaxPID
		p.Meta = packet.Meta{MID: mid, PID: pid, Version: 1}
		if c.flowObs != nil && c.flowSampler.Sampled(pid) {
			c.observeFlow(p)
		}
		if viaDefault {
			defHits++
		} else {
			ruleHits++
		}
		if runCnt > 0 && mid != runMID {
			c.midCounter(runMID).Add(runCnt)
			runCnt = 0
		}
		runMID = mid
		runCnt++
		promote(pkts, n, i)
		n++
	}
	if runCnt > 0 {
		c.midCounter(runMID).Add(runCnt)
	}
	if ruleHits > 0 {
		c.ruleMatches.Add(ruleHits)
	}
	if defHits > 0 {
		c.defaultHits.Add(defHits)
	}
	if unmatched > 0 {
		c.unmatchedC.Add(unmatched)
	}
	if hits > 0 {
		c.cacheHits.Add(hits)
	}
	if misses > 0 {
		c.cacheMiss.Add(misses)
	}
	return n
}

// Stats returns (classified, unmatched) counts.
func (c *Classifier) Stats() (classified, unmatched uint64) {
	return c.ruleMatches.Value() + c.defaultHits.Value(), c.unmatchedC.Value()
}
