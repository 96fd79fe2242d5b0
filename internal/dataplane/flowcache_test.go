package dataplane

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"

	"nfp/internal/graph"
	"nfp/internal/nf"
	"nfp/internal/nfa"
	"nfp/internal/packet"
	"nfp/internal/telemetry"
)

// cachedClassifier is batchClassifier plus a bound single-shard
// microflow cache of the given slot count.
func cachedClassifier(slots int) (*Classifier, *telemetry.Registry) {
	c, reg := batchClassifier()
	c.bindFlowCache(1, slots)
	return c, reg
}

func cacheCounters(c *Classifier) (hits, misses, evicts uint64) {
	return c.cacheHits.Value(), c.cacheMiss.Value(), c.cacheEvict.Value()
}

// republish publishes the current classification table again as a new
// generation without changing a rule or the default, which makes every
// microflow cache entry stale at once.
func republish(c *Classifier) {
	c.mutate(func(*classTable) {})
}

// cacheSlots is the size of shard's microflow cache.
func cacheSlots(c *Classifier, shard int) int {
	return len(c.caches[shard].Load().slots)
}

// flowPkt builds flow i of a synthetic flow set into p: the flows
// differ in source address only and all match the 10.0.0.0/8 rule of
// batchClassifier.
func flowPkt(p *packet.Packet, i int) *packet.Packet {
	packet.BuildInto(p, packet.BuildSpec{
		SrcIP:   netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}),
		DstIP:   netip.MustParseAddr("10.100.0.1"),
		Proto:   packet.ProtoTCP,
		SrcPort: 1024, DstPort: 80,
		TTL: 64,
	})
	return p
}

// flowHash is the hash the microflow cache indexes p's flow by.
func flowHash(t *testing.T, p *packet.Packet) uint64 {
	t.Helper()
	fk, err := p.FlowKey()
	if err != nil {
		t.Fatal(err)
	}
	return fk.Hash()
}

// drawPID returns a PID counter value at which the displacement draw
// for the flow hashed h comes out as pass.
func drawPID(h uint64, pass bool) uint64 {
	for pid := uint64(1); ; pid++ {
		if fcDraw(h, pid) == pass {
			return pid
		}
	}
}

func TestFlowCacheHitMiss(t *testing.T) {
	c, _ := cachedClassifier(64)
	a := classPkt("10.0.0.1", 1024)
	b := classPkt("172.16.0.1", 1024)

	if mid, ok := classifyOne(c, a); !ok || mid != 1 {
		t.Fatalf("first classify = (%d, %v)", mid, ok)
	}
	if h, m, _ := cacheCounters(c); h != 0 || m != 1 {
		t.Fatalf("after first: hits=%d misses=%d, want 0/1", h, m)
	}
	if mid, ok := classifyOne(c, a); !ok || mid != 1 {
		t.Fatalf("second classify = (%d, %v)", mid, ok)
	}
	if h, m, _ := cacheCounters(c); h != 1 || m != 1 {
		t.Fatalf("after repeat: hits=%d misses=%d, want 1/1", h, m)
	}
	if mid, ok := classifyOne(c, b); !ok || mid != 2 {
		t.Fatalf("other flow = (%d, %v)", mid, ok)
	}
	if h, m, _ := cacheCounters(c); h != 1 || m != 2 {
		t.Fatalf("after other flow: hits=%d misses=%d, want 1/2", h, m)
	}
	// Outcome counters must match the cache-off accounting exactly.
	if cl, un := c.Stats(); cl != 3 || un != 0 {
		t.Fatalf("Stats = (%d, %d), want (3, 0)", cl, un)
	}
}

// TestFlowCacheEvictionSingleSlot pins the install rules. On a one-slot
// cache, where both ways of every flow are the one slot: a free way
// installs, and so does a stale one, with no eviction and no growth. At
// the ceiling, where the cache no longer grows: a miss whose two ways
// hold live entries displaces the primary one only when the draw
// passes, and only that counts as an eviction. Then, from one slot
// again: the cache doubles exactly when as many misses have found both
// ways live as it has slots, and stops at fcMaxSlots.
func TestFlowCacheEvictionSingleSlot(t *testing.T) {
	c, _ := cachedClassifier(1)
	a := classPkt("10.0.0.1", 1024)
	b := classPkt("172.16.0.1", 1024)
	classifyOne(c, a) // free: installs
	if mid, ok := classifyOne(c, a); !ok || mid != 1 {
		t.Fatalf("a = (%d, %v)", mid, ok)
	}
	republish(c)
	classifyOne(c, b) // a's entry is stale: b installs over it
	if mid, ok := classifyOne(c, b); !ok || mid != 2 {
		t.Fatalf("b = (%d, %v)", mid, ok)
	}
	if h, m, e := cacheCounters(c); h != 2 || m != 2 || e != 0 {
		t.Fatalf("free and stale installs: hits=%d misses=%d evicts=%d, want 2/2/0", h, m, e)
	}
	if n, p := cacheSlots(c, 0), c.caches[0].Load().pressure.Load(); n != 1 || p != 0 {
		t.Fatalf("free and stale installs left %d slots at pressure %d, want 1 at 0", n, p)
	}

	// Three flows at the ceiling: y and z sit in x's primary and
	// secondary ways, found by searching the source address.
	c, _ = cachedClassifier(fcMaxSlots)
	mask := uint64(fcMaxSlots - 1)
	x := flowPkt(packet.New(make([]byte, 2048)), 1)
	hx := flowHash(t, x)
	scratch := packet.New(make([]byte, 2048))
	find := func(way uint64) *packet.Packet {
		for i := 2; i < 1<<22; i++ {
			if flowHash(t, flowPkt(scratch, i))&mask == way {
				return flowPkt(packet.New(make([]byte, 2048)), i)
			}
		}
		t.Fatalf("no flow has primary way %d", way)
		return nil
	}
	if hx&mask == (hx>>16)&mask {
		t.Fatal("x's two ways coincide; pick another x")
	}
	y, z := find(hx&mask), find((hx>>16)&mask)
	passes := 0
	for pid := uint64(0); pid < 1<<16; pid++ {
		if fcDraw(hx, pid) {
			passes++
		}
	}
	if passes < 1<<16/40 || passes > 1<<16/26 {
		t.Fatalf("the draw passed %d times in %d PIDs, want about 1 in 32", passes, 1<<16)
	}
	classifyOne(c, y)
	classifyOne(c, z)
	for i := 0; i < 3; i++ {
		c.nextPID.Store(drawPID(hx, false))
		classifyOne(c, x)
	}
	if h, m, e := cacheCounters(c); h != 0 || m != 5 || e != 0 {
		t.Fatalf("failed draws: hits=%d misses=%d evicts=%d, want 0/5/0", h, m, e)
	}
	c.nextPID.Store(drawPID(hx, true))
	classifyOne(c, x) // displaces y
	classifyOne(c, x)
	classifyOne(c, z)
	classifyOne(c, y)
	if h, m, e := cacheCounters(c); h != 2 || m != 7 || e != 1 {
		t.Fatalf("passed draw: hits=%d misses=%d evicts=%d, want 2/7/1 (x and z hit, y misses)", h, m, e)
	}
	if n, p := cacheSlots(c, 0), c.caches[0].Load().pressure.Load(); n != fcMaxSlots || p != 0 {
		t.Fatalf("at the ceiling: %d slots at pressure %d, want %d at 0", n, p, fcMaxSlots)
	}

	// Growth: every flow is new, so once the cache is full every miss
	// finds both ways live.
	c, _ = cachedClassifier(1)
	p := packet.New(make([]byte, 2048))
	for i := 0; cacheSlots(c, 0) < fcMaxSlots; i++ {
		if i == 1<<20 {
			t.Fatalf("%d flows grew the cache to %d slots only", i, cacheSlots(c, 0))
		}
		mc := c.caches[0].Load()
		before := mc.pressure.Load()
		classifyOne(c, flowPkt(p, i))
		after := c.caches[0].Load()
		if after == mc {
			if mc.pressure.Load() >= uint64(len(mc.slots)) {
				t.Fatalf("flow %d: pressure %d on %d slots without growth", i, mc.pressure.Load(), len(mc.slots))
			}
			continue
		}
		if before+1 != uint64(len(mc.slots)) || len(after.slots) != 2*len(mc.slots) || after.pressure.Load() != 0 {
			t.Fatalf("flow %d: %d slots at pressure %d grew to %d slots at pressure %d, want double at pressure = slots",
				i, len(mc.slots), before+1, len(after.slots), after.pressure.Load())
		}
	}
	for i := 0; i < 4*fcMaxSlots; i++ {
		classifyOne(c, flowPkt(p, 1<<20+i))
	}
	if n := cacheSlots(c, 0); n != fcMaxSlots {
		t.Fatalf("%d slots after a sweep at the ceiling, want %d", n, fcMaxSlots)
	}
}

// TestFlowCacheStaleAfterMutations: every table mutation republishes
// the COW table pointer, so installed entries must stop matching — the
// next packet re-walks the rules and sees the mutation.
func TestFlowCacheStaleAfterMutations(t *testing.T) {
	c, _ := cachedClassifier(64)
	p := classPkt("10.0.0.1", 1024)

	classifyOne(c, p) // miss, installs
	classifyOne(c, p) // hit
	if h, m, _ := cacheCounters(c); h != 1 || m != 1 {
		t.Fatalf("warmup: hits=%d misses=%d", h, m)
	}

	// PrependRule is the §7 redirect primitive: the very next lookup
	// must see the new rule, not the cached MID.
	c.PrependRule(Match{SrcPrefix: netip.MustParsePrefix("10.0.0.0/8")}, 9)
	if mid, ok := classifyOne(c, p); !ok || mid != 9 {
		t.Fatalf("after prepend: (%d, %v), want (9, true)", mid, ok)
	}
	if h, m, _ := cacheCounters(c); h != 1 || m != 2 {
		t.Fatalf("prepend did not invalidate: hits=%d misses=%d", h, m)
	}

	c.AddRule(Match{DstPort: 443}, 5) // irrelevant rule, still invalidates
	if mid, _ := classifyOne(c, p); mid != 9 {
		t.Fatalf("after add: mid=%d", mid)
	}
	if h, m, _ := cacheCounters(c); h != 1 || m != 3 {
		t.Fatalf("add did not invalidate: hits=%d misses=%d", h, m)
	}

	republish(c)
	if mid, _ := classifyOne(c, p); mid != 9 {
		t.Fatalf("after republish: mid=%d", mid)
	}
	if h, m, _ := cacheCounters(c); h != 1 || m != 4 {
		t.Fatalf("republish did not invalidate: hits=%d misses=%d", h, m)
	}

	// Clear empties the rule table — the cache disengages entirely
	// (empty-table bypass) and the packet goes unmatched (no default).
	c.Clear()
	if _, ok := classifyOne(c, p); ok {
		t.Fatal("classified after Clear with no default")
	}
	if h, m, _ := cacheCounters(c); h != 1 || m != 4 {
		t.Fatalf("empty-table classify touched the cache: hits=%d misses=%d", h, m)
	}
}

// TestFlowCacheEmptyTableBypass: with no rules installed the default
// route is already O(1); the cache must stay out of the way.
func TestFlowCacheEmptyTableBypass(t *testing.T) {
	var c Classifier
	reg := telemetry.NewRegistry()
	c.bindTelemetry(reg)
	c.bindFlowCache(1, 64)
	c.SetDefault(3)
	p := classPkt("10.0.0.1", 1024)
	for i := 0; i < 3; i++ {
		if mid, ok := classifyOne(&c, p); !ok || mid != 3 {
			t.Fatalf("(%d, %v)", mid, ok)
		}
	}
	if h, m, e := cacheCounters(&c); h != 0 || m != 0 || e != 0 {
		t.Fatalf("default-only traffic touched the cache: %d/%d/%d", h, m, e)
	}
}

// TestFlowCacheViaDefaultCached: a flow resolved by the default route
// after a failed rule walk is still worth caching — and the cached hit
// must keep counting as a default hit, not a rule match.
func TestFlowCacheViaDefaultCached(t *testing.T) {
	c, _ := cachedClassifier(64)
	c.SetDefault(7)
	p := classPkt("192.168.0.1", 1024) // matches neither prefix rule
	if mid, ok := classifyOne(c, p); !ok || mid != 7 {
		t.Fatalf("first: (%d, %v)", mid, ok)
	}
	if mid, ok := classifyOne(c, p); !ok || mid != 7 {
		t.Fatalf("second: (%d, %v)", mid, ok)
	}
	if h, m, _ := cacheCounters(c); h != 1 || m != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", h, m)
	}
	if c.defaultHits.Value() != 2 || c.ruleMatches.Value() != 0 {
		t.Fatalf("defaultHits=%d ruleMatches=%d, want 2/0",
			c.defaultHits.Value(), c.ruleMatches.Value())
	}
}

// TestFlowCacheBatchShardIsolation: each shard owns a distinct cache,
// so the same flow misses once per shard and the per-shard installs
// never interfere.
func TestFlowCacheBatchShardIsolation(t *testing.T) {
	c, _ := batchClassifier()
	c.bindFlowCache(2, 64)
	mk := func() []*packet.Packet {
		return []*packet.Packet{classPkt("10.0.0.1", 1024), classPkt("10.0.0.1", 1024)}
	}
	if n := c.ClassifyBatchShard(mk(), 0); n != 2 {
		t.Fatalf("shard 0 accepted %d", n)
	}
	if n := c.ClassifyBatchShard(mk(), 1); n != 2 {
		t.Fatalf("shard 1 accepted %d", n)
	}
	h, m, _ := cacheCounters(c)
	// Per burst: first packet misses+installs, second hits. Twice over
	// (once per shard) because the caches are independent.
	if h != 2 || m != 2 {
		t.Fatalf("hits=%d misses=%d, want 2/2", h, m)
	}
}

// TestFlowCachePrependRedirectImmediate drives a live server: a flow
// pinned to MID 1 with a warm cache is redirected to MID 2 by
// PrependRule mid-traffic, and the very next burst must land on the
// MID 2 graph — no packet may ride a stale cache line. A zero-downtime
// reload of MID 2 then keeps the cache line, and the post-reload burst
// still reaches the new generation's instance whole.
func TestFlowCachePrependRedirectImmediate(t *testing.T) {
	mon1, mon2 := nf.NewMonitor(), nf.NewMonitor()
	g := graph.Seq{Items: []graph.Node{nfn(nfa.NFMonitor, 0)}}
	s := New(Config{PoolSize: 256, Burst: 8})
	if err := s.AddGraphInstances(1, g, map[graph.NF]nf.NF{nfn(nfa.NFMonitor, 0): mon1}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddGraphInstances(2, g, map[graph.NF]nf.NF{nfn(nfa.NFMonitor, 0): mon2}); err != nil {
		t.Fatal(err)
	}
	// A rule (not just the default) routes port-80 traffic to MID 1 so
	// the microflow cache engages and warms.
	s.Classifier().AddRule(Match{DstPort: 80}, 1)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for p := range s.Output() {
			p.Free()
		}
	}()

	inject := func(k int) {
		t.Helper()
		batch := make([]*packet.Packet, k)
		got := s.Pool().AllocBatch(batch)
		if got != k {
			t.Fatalf("alloc %d of %d", got, k)
		}
		for _, p := range batch {
			packet.BuildInto(p, packet.BuildSpec{
				SrcIP:   netip.MustParseAddr("10.0.0.1"),
				DstIP:   netip.MustParseAddr("10.100.0.1"),
				Proto:   packet.ProtoTCP,
				SrcPort: 1024, DstPort: 80,
				TTL: 64, Payload: []byte("redirect"),
			})
		}
		if acc := s.InjectBatch(batch); acc != k {
			t.Fatalf("injected %d of %d", acc, k)
		}
	}

	inject(16) // warm: 1 miss + 15 hits, all on MID 1

	// The §7 redirect primitive, mid-traffic.
	s.Classifier().PrependRule(Match{DstPort: 80}, 2)
	inject(16) // must ALL land on MID 2 — classification is inline here

	// And across a reload: the generation swaps, the cache line stays.
	mon2b := nf.NewMonitor()
	err := s.ReloadProvide(2, g, func(shard int, node graph.NF) nf.NF { return mon2b })
	if err != nil {
		t.Fatal(err)
	}
	inject(16) // post-reload burst: fresh instance, all cache hits

	s.Stop()
	<-drained

	if got := mon1.Total().Packets; got != 16 {
		t.Errorf("MID 1 monitor saw %d packets, want 16 (stale cache line after redirect?)", got)
	}
	if got := mon2.Total().Packets; got != 16 {
		t.Errorf("MID 2 monitor saw %d packets, want 16", got)
	}
	if got := mon2b.Total().Packets; got != 16 {
		t.Errorf("post-reload monitor saw %d packets, want 16", got)
	}
	hits := s.classifier.cacheHits.Value()
	misses := s.classifier.cacheMiss.Value()
	// 3 bursts of 16: the install and the redirect start cold, the
	// reload does not: 2 misses, 46 hits.
	if misses != 2 || hits != 46 {
		t.Errorf("cache hits=%d misses=%d, want 46/2", hits, misses)
	}
}

// TestFlowCacheSurvivesReload: a Reload changes no rule and no default,
// so it keeps every cache entry, and the next packet of a cached flow
// hits and still runs on the new generation's instance — acquire
// resolves the generation, the cache only the MID. A rule mutation or a
// new default still invalidates.
func TestFlowCacheSurvivesReload(t *testing.T) {
	mon, monB := nf.NewMonitor(), nf.NewMonitor()
	g := graph.Seq{Items: []graph.Node{nfn(nfa.NFMonitor, 0)}}
	s := New(Config{PoolSize: 256, Burst: 8})
	if err := s.AddGraphInstances(1, g, map[graph.NF]nf.NF{nfn(nfa.NFMonitor, 0): mon}); err != nil {
		t.Fatal(err)
	}
	s.Classifier().AddRule(Match{DstPort: 80}, 1)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for p := range s.Output() {
			p.Free()
		}
	}()
	inject := func(k int) {
		t.Helper()
		batch := make([]*packet.Packet, k)
		if got := s.Pool().AllocBatch(batch); got != k {
			t.Fatalf("alloc %d of %d", got, k)
		}
		for _, p := range batch {
			packet.BuildInto(p, packet.BuildSpec{
				SrcIP:   netip.MustParseAddr("10.0.0.1"),
				DstIP:   netip.MustParseAddr("10.100.0.1"),
				Proto:   packet.ProtoTCP,
				SrcPort: 1024, DstPort: 80,
				TTL: 64, Payload: []byte("reload"),
			})
		}
		if acc := s.InjectBatch(batch); acc != k {
			t.Fatalf("injected %d of %d", acc, k)
		}
	}
	c := &s.classifier
	expect := func(step string, hits, misses uint64) {
		t.Helper()
		if h, m, _ := cacheCounters(c); h != hits || m != misses {
			t.Fatalf("%s: hits=%d misses=%d, want %d/%d", step, h, m, hits, misses)
		}
	}

	inject(4)
	expect("warm-up", 3, 1)
	if err := s.ReloadProvide(1, g, func(int, graph.NF) nf.NF { return monB }); err != nil {
		t.Fatal(err)
	}
	inject(1)
	expect("after ReloadProvide", 4, 1)
	c.AddRule(Match{DstPort: 443}, 1)
	inject(1)
	expect("after AddRule", 4, 2)
	c.PrependRule(Match{DstPort: 443}, 1)
	inject(1)
	expect("after PrependRule", 4, 3)
	c.SetDefault(1)
	inject(1)
	expect("after SetDefault", 4, 4)

	s.Stop()
	<-drained
	if got := mon.Total().Packets; got != 4 {
		t.Errorf("first generation's monitor saw %d packets, want 4", got)
	}
	if got := monB.Total().Packets; got != 4 {
		t.Errorf("reloaded generation's monitor saw %d packets, want 4 (a cache hit rode the old generation?)", got)
	}
}

// TestFlowCacheGrowsToWorkingSet: a shard's cache grows until the flows
// it sees fit — 4096 flows cycled through a cache that starts at 4096
// slots end up nearly all hits — but no further: 64 flows never grow
// it, and a sweep of 2^18 flows stops at fcMaxSlots.
func TestFlowCacheGrowsToWorkingSet(t *testing.T) {
	cycle := func(c *Classifier, flows, laps int) (hitRatio float64) {
		p := packet.New(make([]byte, 2048))
		var h0, m0 uint64
		for lap := 0; lap < laps; lap++ {
			h0, m0, _ = cacheCounters(c)
			for i := 0; i < flows; i++ {
				if _, ok := classifyOne(c, flowPkt(p, i)); !ok {
					t.Fatalf("flow %d unclassified", i)
				}
			}
		}
		h, m, _ := cacheCounters(c)
		return float64(h-h0) / float64(h-h0+m-m0)
	}

	c, _ := cachedClassifier(flowCacheSlots)
	if r := cycle(c, 4096, 12); r < 0.97 {
		t.Errorf("4096 flows: last-lap hit ratio %.3f at %d slots, want >= 0.97", r, cacheSlots(c, 0))
	}
	c, _ = cachedClassifier(flowCacheSlots)
	if r := cycle(c, 64, 100); r != 1 || cacheSlots(c, 0) != flowCacheSlots {
		t.Errorf("64 flows: last-lap hit ratio %.3f at %d slots, want 1 at %d", r, cacheSlots(c, 0), flowCacheSlots)
	}
	c, _ = cachedClassifier(flowCacheSlots)
	cycle(c, 1<<18, 1)
	if n := cacheSlots(c, 0); n != fcMaxSlots {
		t.Errorf("a sweep of 2^18 flows left %d slots, want %d", n, fcMaxSlots)
	}
}

// TestFlowCacheSlotsGauge: nfp_classifier_cache_slots reads each
// shard's cache size at scrape time — one unlabelled series on one
// shard, one per shard label on more — and follows a growth.
func TestFlowCacheSlotsGauge(t *testing.T) {
	for _, shards := range []int{1, 2} {
		s := New(Config{PoolSize: 256, Shards: shards})
		c := &s.classifier
		c.AddRule(Match{SrcPrefix: netip.MustParsePrefix("10.0.0.0/8")}, 1)
		label := func(i int) []telemetry.Label {
			if shards == 1 {
				return nil
			}
			return []telemetry.Label{telemetry.L("shard", fmt.Sprint(i))}
		}
		series := 0
		for _, g := range s.Telemetry().Snapshot().Gauges {
			if g.Name == "nfp_classifier_cache_slots" {
				series++
			}
		}
		if series != shards {
			t.Fatalf("shards=%d: %d nfp_classifier_cache_slots series", shards, series)
		}
		grown := shards - 1
		p := packet.New(make([]byte, 2048))
		for i := 0; cacheSlots(c, grown) == flowCacheSlots; i++ {
			if i == 1<<20 {
				t.Fatalf("shards=%d: %d flows never grew shard %d's cache", shards, i, grown)
			}
			c.ClassifyBatchShard([]*packet.Packet{flowPkt(p, i)}, grown)
		}
		snap := s.Telemetry().Snapshot()
		for i := 0; i < shards; i++ {
			want := int64(flowCacheSlots)
			if i == grown {
				want *= 2
			}
			if got := snap.GaugeValue("nfp_classifier_cache_slots", label(i)...); got != want {
				t.Errorf("shards=%d: shard %d reads %d slots, want %d", shards, i, got, want)
			}
		}
	}
}

// TestFlowCacheConcurrentInstall has four injectors classify through a
// two-slot cache while a fifth goroutine keeps republishing the table.
// The flows share ports and protocol and differ only in addresses, and
// the two prefixes' flows resolve to different MIDs: a probe that read
// one entry's address word and another's port-and-MID word would take
// it for a hit and stamp the wrong graph — the read the sequence word
// rules out. The first phase pins the cache at two slots, so its 64
// flows overwrite every slot constantly for all 2000 rounds; the second
// lets a two-slot cache grow under the injectors' feet. Every answer is
// checked; under -race the detector holds the slots and the swap to
// atomics only. A miss installs in place: no allocation.
func TestFlowCacheConcurrentInstall(t *testing.T) {
	c, _ := cachedClassifier(2)
	c.caches[0].Load().pressure.Store(1 << 62) // never reaches the slot count: no growth
	concurrentProbe(t, c, 2000)
	if n := cacheSlots(c, 0); n != 2 {
		t.Fatalf("the pinned cache grew to %d slots", n)
	}
	if _, _, ev := cacheCounters(c); ev == 0 {
		t.Error("64 flows on two slots displaced no live entry")
	}

	c, _ = cachedClassifier(2)
	concurrentProbe(t, c, 200)
	if n := cacheSlots(c, 0); n == 2 {
		t.Error("64 flows never grew a two-slot cache")
	}

	// On a cache with room, republishing makes every classification
	// after it a miss and an install; what it allocates itself (the
	// table copy) is the baseline.
	c, _ = cachedClassifier(64)
	a, b := classPkt("10.9.9.1", 1024), classPkt("10.9.9.2", 1024)
	classifyOne(c, a) // materialize the per-MID counter
	base := testing.AllocsPerRun(200, func() { republish(c) })
	got := testing.AllocsPerRun(200, func() {
		republish(c)
		classifyOne(c, a)
		classifyOne(c, b)
	})
	if got > base {
		t.Errorf("two cache misses allocate %v objects beyond the republish's %v, want 0", got-base, base)
	}
}

// concurrentProbe runs rounds of TestFlowCacheConcurrentInstall's
// traffic through c from four injectors while a fifth goroutine
// republishes the table, checking every classification.
func concurrentProbe(t *testing.T, c *Classifier, rounds int) {
	t.Helper()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				republish(c)
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pkts := make([]*packet.Packet, 16)
			want := make([]uint32, len(pkts))
			for i := range pkts {
				src, mid := fmt.Sprintf("10.%d.0.%d", g, i+1), uint32(1)
				if i%2 == 1 {
					src, mid = fmt.Sprintf("172.16.%d.%d", g, i+1), 2
				}
				pkts[i], want[i] = classPkt(src, 1024), mid
			}
			for round := 0; round < rounds; round++ {
				for i, p := range pkts {
					if mid, ok := classifyOne(c, p); !ok || mid != want[i] {
						t.Errorf("injector %d flow %d: classified (%d, %v), want MID %d", g, i, mid, ok, want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-done
}
