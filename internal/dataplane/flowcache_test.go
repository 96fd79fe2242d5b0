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

// TestFlowCacheEvictionSingleSlot forces collisions with a one-slot
// cache: two live flows alternately displace each other, every
// displacement of a current-table entry counted as an eviction, and
// every result still correct.
func TestFlowCacheEvictionSingleSlot(t *testing.T) {
	c, _ := cachedClassifier(1)
	a := classPkt("10.0.0.1", 1024)
	b := classPkt("172.16.0.1", 1024)
	for i := 0; i < 4; i++ {
		if mid, ok := classifyOne(c, a); !ok || mid != 1 {
			t.Fatalf("iter %d: a = (%d, %v)", i, mid, ok)
		}
		if mid, ok := classifyOne(c, b); !ok || mid != 2 {
			t.Fatalf("iter %d: b = (%d, %v)", i, mid, ok)
		}
	}
	h, m, e := cacheCounters(c)
	// Every classify is a miss (the other flow always owns the slot),
	// and every install after the first displaces a live entry.
	if h != 0 || m != 8 || e != 7 {
		t.Fatalf("hits=%d misses=%d evicts=%d, want 0/8/7", h, m, e)
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

	c.InvalidateCache()
	if mid, _ := classifyOne(c, p); mid != 9 {
		t.Fatalf("after explicit invalidate: mid=%d", mid)
	}
	if h, m, _ := cacheCounters(c); h != 1 || m != 4 {
		t.Fatalf("InvalidateCache did not invalidate: hits=%d misses=%d", h, m)
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
// MID 2 graph — no packet may ride a stale cache line. The same
// guarantee is then re-proven across a zero-downtime reload.
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

	// And across a reload: generation swap plus explicit invalidation.
	mon2b := nf.NewMonitor()
	err := s.ReloadProvide(2, g, func(shard int, node graph.NF) nf.NF { return mon2b })
	if err != nil {
		t.Fatal(err)
	}
	inject(16) // post-reload burst: fresh instance, no stale cache line

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
	// 3 bursts of 16, each starting cold (install, redirect, reload all
	// invalidate): 3 misses, 45 hits.
	if misses != 3 || hits != 45 {
		t.Errorf("cache hits=%d misses=%d, want 45/3", hits, misses)
	}
}

// TestFlowCacheConcurrentInstall has four injectors classify through a
// two-slot cache while a fifth goroutine keeps republishing the table.
// The flows share ports and protocol and differ only in addresses, and
// the two prefixes' flows resolve to different MIDs: a probe that read
// one entry's address word and another's port-and-MID word would take
// it for a hit and stamp the wrong graph — the read the sequence word
// rules out. Every slot is overwritten constantly and every answer is
// checked; under -race the detector holds the slot to atomics only.
// A miss installs in place: no allocation.
func TestFlowCacheConcurrentInstall(t *testing.T) {
	c, _ := cachedClassifier(2)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				c.InvalidateCache()
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
			for round := 0; round < 2000; round++ {
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

	a, b := classPkt("10.9.9.1", 1024), classPkt("10.9.9.2", 1024)
	classifyOne(c, a) // materialize the per-MID counter
	// Republishing makes every classification after it a miss and an
	// install; what it allocates itself (the table copy) is the baseline.
	base := testing.AllocsPerRun(200, func() { c.InvalidateCache() })
	got := testing.AllocsPerRun(200, func() {
		c.InvalidateCache()
		classifyOne(c, a)
		classifyOne(c, b)
	})
	if got > base {
		t.Errorf("two cache misses allocate %v objects beyond the republish's %v, want 0", got-base, base)
	}
}
