package dataplane

import (
	"math/rand"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"

	"nfp/internal/flow"
	"nfp/internal/packet"
	"nfp/internal/ruleindex"
	"nfp/internal/telemetry"
)

// refClassify is the §5.1 linear first-match walk the rule index
// replaced, kept as the executable spec: first rule whose Match.Covers
// the key, else the default route.
func refClassify(rules []classRule, hasDefault bool, defaultMID uint32, p *packet.Packet) (mid uint32, ok, viaDefault bool) {
	if k, err := flow.FromPacket(p); err == nil {
		for _, r := range rules {
			if r.match.Covers(k) {
				return r.mid, true, false
			}
		}
	}
	return defaultMID, hasDefault, hasDefault
}

// randomMatch draws from a small universe so that nested, overlapping
// and duplicate rules are common, and covers every prefix spelling a
// Match can carry: zero (wildcard), out-of-range bits (invalid, so also
// a wildcard), masked, unmasked, /0, /32, IPv6 and IPv4-mapped IPv6
// (valid, but no IPv4 packet is inside them).
func randomMatch(rng *rand.Rand) Match {
	prefix := func() netip.Prefix {
		addrs := []string{"10.0.0.0", "10.0.0.1", "10.0.1.7", "10.100.0.1", "172.16.0.1", "0.0.0.0", "255.255.255.255"}
		a := netip.MustParseAddr(addrs[rng.Intn(len(addrs))])
		switch rng.Intn(10) {
		case 0, 1, 2:
			return netip.Prefix{}
		case 3:
			return netip.PrefixFrom(a, 99)
		case 4:
			return netip.MustParsePrefix("2001:db8::/32")
		case 5:
			return netip.PrefixFrom(netip.AddrFrom16(a.As16()), 96+rng.Intn(33))
		case 6:
			return netip.PrefixFrom(a, []int{0, 32}[rng.Intn(2)])
		case 7:
			return netip.PrefixFrom(a, rng.Intn(33)) // host bits left set
		default:
			return netip.PrefixFrom(a, []int{8, 16, 24, 31}[rng.Intn(4)]).Masked()
		}
	}
	port := func() uint16 { return []uint16{0, 0, 80, 81, 1024, 65535}[rng.Intn(6)] }
	return Match{
		SrcPrefix: prefix(), DstPrefix: prefix(),
		SrcPort: port(), DstPort: port(),
		Proto: []uint8{0, 0, packet.ProtoTCP, packet.ProtoUDP}[rng.Intn(4)],
	}
}

// testTraffic is a fixed set of packets over the same small universe,
// plus one unparseable frame that must take the default route.
func testTraffic() []*packet.Packet {
	var pkts []*packet.Packet
	for _, src := range []string{"10.0.0.0", "10.0.0.1", "10.0.1.7", "10.1.0.0", "172.16.0.1", "192.168.0.1", "255.255.255.255"} {
		for _, dst := range []string{"10.100.0.1", "10.0.0.1", "8.8.8.8"} {
			for _, sport := range []uint16{80, 1024, 65535, 7} {
				p := packet.New(make([]byte, 128))
				packet.BuildInto(p, packet.BuildSpec{
					SrcIP: netip.MustParseAddr(src), DstIP: netip.MustParseAddr(dst),
					Proto:   []uint8{packet.ProtoTCP, packet.ProtoUDP}[len(pkts)%2],
					SrcPort: sport, DstPort: []uint16{80, 81, 443}[len(pkts)%3],
				})
				pkts = append(pkts, p)
			}
		}
	}
	return append(pkts, packet.New(make([]byte, 8)))
}

// TestRuleIndexAgreesWithCovers holds the compiled classifier form to
// its spec at table level: the index position is the first i with
// rules[i].Covers(k).
func TestRuleIndexAgreesWithCovers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	traffic := testTraffic()
	for round := 0; round < 300; round++ {
		rules := make([]Match, rng.Intn(24))
		for i := range rules {
			if i > 0 && rng.Intn(6) == 0 {
				rules[i] = rules[rng.Intn(i)]
			} else {
				rules[i] = randomMatch(rng)
			}
		}
		ix := ruleindex.Build(len(rules), func(i int) (ruleindex.Rule, bool) { return rules[i].indexRule() })
		for _, p := range traffic {
			k, err := flow.FromPacket(p)
			if err != nil {
				continue
			}
			want := -1
			for i, m := range rules {
				if m.Covers(k) {
					want = i
					break
				}
			}
			if got := ix.Lookup(k.Packed()); got != want {
				t.Fatalf("round %d: Lookup(%v) = %d, first covering rule is %d\nrules: %+v", round, k, got, want, rules)
			}
		}
	}
}

// TestClassifierMatchesReferenceWalk drives a random interleaving of
// every table mutation with ClassifyBatch, flow cache on and off, and
// holds MIDs, the accepted/rejected partition and the three outcome
// counters to the reference walk over a shadow copy of the table.
func TestClassifierMatchesReferenceWalk(t *testing.T) {
	for _, cached := range []bool{false, true} {
		rng := rand.New(rand.NewSource(11))
		var c Classifier
		c.bindTelemetry(telemetry.NewRegistry())
		if cached {
			c.bindFlowCache(1, 32) // smaller than the traffic: hits, misses and evictions all happen
		}
		var (
			rules                            []classRule
			hasDefault                       bool
			defaultMID                       uint32
			wantRule, wantDefault, wantUnmat uint64
		)
		traffic := testTraffic()
		batch := make([]*packet.Packet, len(traffic))
		for step := 0; step < 600; step++ {
			switch op := rng.Intn(16); {
			case op < 5:
				r := classRule{randomMatch(rng), uint32(1 + rng.Intn(5))}
				c.AddRule(r.match, r.mid)
				rules = append(rules, r)
			case op < 7:
				r := classRule{randomMatch(rng), uint32(1 + rng.Intn(5))}
				c.PrependRule(r.match, r.mid)
				rules = append([]classRule{r}, rules...)
			case op == 7:
				defaultMID, hasDefault = uint32(6+rng.Intn(2)), true
				c.SetDefault(defaultMID)
			case op == 8 && rng.Intn(4) == 0:
				c.Clear()
				rules, hasDefault, defaultMID = nil, false, 0
			case op == 9:
				c.InvalidateCache()
			}
			rng.Shuffle(len(traffic), func(i, j int) { traffic[i], traffic[j] = traffic[j], traffic[i] })
			copy(batch, traffic)
			var accepted, rejected []*packet.Packet
			wantMID := map[*packet.Packet]uint32{}
			for _, p := range batch {
				mid, ok, viaDefault := refClassify(rules, hasDefault, defaultMID, p)
				switch {
				case !ok:
					wantUnmat++
					rejected = append(rejected, p)
					continue
				case viaDefault:
					wantDefault++
				default:
					wantRule++
				}
				wantMID[p] = mid
				accepted = append(accepted, p)
			}
			n := c.ClassifyBatch(batch)
			if n != len(accepted) {
				t.Fatalf("cached=%v step %d: classified %d, reference %d", cached, step, n, len(accepted))
			}
			for i, p := range batch {
				if i < n && (p != accepted[i] || p.Meta.MID != wantMID[p]) {
					t.Fatalf("cached=%v step %d: accepted[%d] MID %d, reference MID %d (same packet: %v)",
						cached, step, i, p.Meta.MID, wantMID[accepted[i]], p == accepted[i])
				}
				if i >= n && p != rejected[i-n] {
					t.Fatalf("cached=%v step %d: rejected tail reordered at %d", cached, step, i)
				}
			}
			if r, d, u := c.ruleMatches.Value(), c.defaultHits.Value(), c.unmatchedC.Value(); r != wantRule || d != wantDefault || u != wantUnmat {
				t.Fatalf("cached=%v step %d: ruleMatches/defaultHits/unmatched = %d/%d/%d, reference %d/%d/%d",
					cached, step, r, d, u, wantRule, wantDefault, wantUnmat)
			}
		}
	}
}

// TestClassifierConcurrentMutation: four goroutines classify while one
// mutates — including the AddRule runs that extend the shared backing
// array in place. The writer only ever grows a table whose every rule
// sends the probe flows to MID 1, so any result other than MID 1 is a
// torn table; -race proves the array sharing itself.
func TestClassifierConcurrentMutation(t *testing.T) {
	for _, cached := range []bool{false, true} {
		var c Classifier
		c.bindTelemetry(telemetry.NewRegistry())
		if cached {
			c.bindFlowCache(1, 64)
		}
		catchAll := Match{SrcPrefix: netip.MustParsePrefix("10.0.0.0/8")}
		c.AddRule(catchAll, 1)

		var stop atomic.Bool
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				pkts := make([]*packet.Packet, 8)
				for i := range pkts {
					pkts[i] = classPkt("10.0.0.1", uint16(1000+8*g+i))
				}
				batch := make([]*packet.Packet, len(pkts))
				for !stop.Load() {
					copy(batch, pkts)
					if n := c.ClassifyBatch(batch); n != len(batch) {
						t.Errorf("classified %d of %d under mutation", n, len(batch))
						return
					}
					for _, p := range batch {
						if p.Meta.MID != 1 {
							t.Errorf("MID %d under mutation, want 1", p.Meta.MID)
							return
						}
					}
				}
			}(g)
		}
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 2000; i++ {
			switch rng.Intn(8) {
			case 0:
				c.PrependRule(Match{DstPort: uint16(9000 + i)}, 2) // never matches DstPort 80
			case 1:
				c.InvalidateCache()
			case 2:
				c.SetDefault(1)
			default:
				c.AddRule(Match{SrcPort: uint16(1 + i%900)}, 1) // may match; same MID
			}
		}
		stop.Store(true)
		wg.Wait()
	}
}

// TestRuleIndexBuiltOncePerRuleList pins the laziness contract by
// count, not by timing: installing N rules compiles nothing, the first
// miss compiles once, republishing the same rule list (InvalidateCache,
// SetDefault — what every Reload fires) reuses that index, and only a
// changed rule list pays again.
func TestRuleIndexBuiltOncePerRuleList(t *testing.T) {
	var c Classifier
	reg := telemetry.NewRegistry()
	c.bindTelemetry(reg)
	c.bindFlowCache(1, 64)
	for i := 0; i < 1000; i++ {
		c.AddRule(Match{SrcPrefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{172, 16, byte(i >> 8), byte(i)}), 32)}, 2)
	}
	c.AddRule(Match{DstPort: 80}, 1)
	if n := c.indexBuilds.Load(); n != 0 {
		t.Fatalf("%d index builds before any lookup", n)
	}
	classify := func() {
		t.Helper()
		for i := 0; i < 4; i++ {
			if mid, ok := c.Classify(classPkt("10.0.0.1", uint16(1000+i))); !ok || mid != 1 {
				t.Fatalf("classify = (%d, %v), want (1, true)", mid, ok)
			}
		}
	}
	classify()
	if n := c.indexBuilds.Load(); n != 1 {
		t.Fatalf("%d index builds after the first misses, want 1", n)
	}
	c.InvalidateCache()
	c.SetDefault(9)
	c.InvalidateCache()
	classify() // every entry is stale: four fresh misses
	if n := c.indexBuilds.Load(); n != 1 {
		t.Fatalf("%d index builds after republishing an unchanged rule list, want 1", n)
	}
	c.PrependRule(Match{DstPort: 81}, 3)
	classify()
	if n := c.indexBuilds.Load(); n != 2 {
		t.Fatalf("%d index builds after a rule change, want 2", n)
	}
	snap := reg.Snapshot()
	if r, tu := snap.GaugeValue("nfp_classifier_rules"), snap.GaugeValue("nfp_classifier_tuples"); r != 1002 || tu != 2 {
		t.Fatalf("nfp_classifier_rules/tuples = %d/%d, want 1002/2", r, tu)
	}
}

// TestAddRuleSharesBackingArray pins the amortised-O(1) install: a run
// of AddRules reallocates only when capacity runs out, and the versions
// published along the way keep reading their own prefix of the array.
func TestAddRuleSharesBackingArray(t *testing.T) {
	var c Classifier
	var tables []*classTable
	grows := 0
	for i := 0; i < 1024; i++ {
		c.AddRule(Match{DstPort: uint16(1 + i)}, uint32(i))
		tab := c.loadTable()
		if i > 0 && &tab.rules[0] != &tables[i-1].rules[0] {
			grows++
		}
		tables = append(tables, tab)
	}
	if grows > 16 {
		t.Errorf("1024 AddRules reallocated the rule array %d times; want O(log n)", grows)
	}
	for i, tab := range tables {
		if len(tab.rules) != i+1 || tab.rules[i].mid != uint32(i) {
			t.Fatalf("version %d sees %d rules, last mid %d", i, len(tab.rules), tab.rules[len(tab.rules)-1].mid)
		}
	}
	// Republishing without a rule change shares the list and its index
	// untouched; PrependRule must not write into the shared array.
	before := c.loadTable()
	c.InvalidateCache()
	c.SetDefault(1)
	if after := c.loadTable(); after == before || &after.rules[0] != &before.rules[0] || after.index != before.index {
		t.Error("a republish without a rule change copied the rule list or dropped its index")
	}
	c.PrependRule(Match{DstPort: 7}, 7)
	if before.rules[0].mid != 0 || len(before.rules) != 1024 {
		t.Error("PrependRule disturbed a published version")
	}
}
