package lpm

import (
	"encoding/binary"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
)

func mustPrefix(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func TestLongestMatchWins(t *testing.T) {
	tb := New()
	for _, e := range []struct {
		p  string
		nh int
	}{
		{"0.0.0.0/0", 1},
		{"10.0.0.0/8", 2},
		{"10.1.0.0/16", 3},
		{"10.1.2.0/24", 4},
		{"10.1.2.3/32", 5},
	} {
		if err := tb.Insert(mustPrefix(e.p), e.nh); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		addr string
		want int
	}{
		{"10.1.2.3", 5},
		{"10.1.2.4", 4},
		{"10.1.3.1", 3},
		{"10.2.0.1", 2},
		{"192.168.1.1", 1},
	}
	for _, c := range cases {
		got, ok := tb.Lookup(netip.MustParseAddr(c.addr))
		if !ok || got != c.want {
			t.Errorf("Lookup(%s) = %d,%v want %d", c.addr, got, ok, c.want)
		}
	}
	if tb.Len() != 5 {
		t.Errorf("Len = %d", tb.Len())
	}
}

func TestNoMatch(t *testing.T) {
	tb := New()
	tb.Insert(mustPrefix("10.0.0.0/8"), 1)
	if _, ok := tb.Lookup(netip.MustParseAddr("11.0.0.1")); ok {
		t.Error("matched outside prefix")
	}
	if _, ok := tb.Lookup(netip.MustParseAddr("::1")); ok {
		t.Error("matched IPv6 address")
	}
}

func TestInsertReplace(t *testing.T) {
	tb := New()
	tb.Insert(mustPrefix("10.0.0.0/8"), 1)
	tb.Insert(mustPrefix("10.0.0.0/8"), 9)
	if tb.Len() != 1 {
		t.Errorf("Len = %d after replace", tb.Len())
	}
	if nh, _ := tb.Lookup(netip.MustParseAddr("10.0.0.1")); nh != 9 {
		t.Errorf("nh = %d, want 9", nh)
	}
}

func TestInsertErrors(t *testing.T) {
	tb := New()
	if err := tb.Insert(netip.MustParsePrefix("2001:db8::/32"), 1); err == nil {
		t.Error("IPv6 prefix accepted")
	}
	// A next hop must fit the entry's 24-bit value field, not be
	// truncated into it.
	for _, nh := range []int{-1, 1 << 24, 1<<24 + 5, 1 << 40} {
		if err := tb.Insert(mustPrefix("10.0.0.0/8"), nh); err == nil {
			t.Errorf("next hop %d accepted", nh)
		}
	}
	if tb.Len() != 0 {
		t.Errorf("Len = %d after rejected inserts", tb.Len())
	}
	if err := tb.Insert(mustPrefix("10.0.0.0/8"), 1<<24-1); err != nil {
		t.Fatal(err)
	}
	if nh, ok := tb.Lookup(netip.MustParseAddr("10.0.0.1")); !ok || nh != 1<<24-1 {
		t.Errorf("largest next hop read back as %d,%v", nh, ok)
	}
}

func TestDefaultRouteOnly(t *testing.T) {
	tb := New()
	tb.Insert(mustPrefix("0.0.0.0/0"), 7)
	nh, ok := tb.Lookup(netip.MustParseAddr("203.0.113.9"))
	if !ok || nh != 7 {
		t.Errorf("default route lookup = %d,%v", nh, ok)
	}
}

// oracle is the reference: the installed prefixes, each with the next
// hop its last insert gave it, searched by linear scan.
type oracle map[netip.Prefix]int

func (o oracle) lookup(addr uint32) (nh int, ok bool) {
	a := u32ToAddr(addr)
	best := -1
	for p, v := range o {
		if p.Bits() > best && p.Contains(a) {
			nh, ok, best = v, true, p.Bits()
		}
	}
	return nh, ok
}

func u32ToAddr(a uint32) netip.Addr {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], a)
	return netip.AddrFrom4(b)
}

// bounds returns the probes around p: its first and last address and
// the addresses one either side of both (wrapping at the ends of the
// address space).
func bounds(p netip.Prefix) []uint32 {
	first := ipv4ToUint(p.Masked().Addr())
	last := first | ^(^uint32(0) << (32 - p.Bits()))
	return []uint32{first - 1, first, first + 1, last - 1, last, last + 1}
}

// insert installs p -> nh in both the table and the oracle.
func (o oracle) insert(t testing.TB, tb *Table, p netip.Prefix, nh int) {
	t.Helper()
	if err := tb.Insert(p, nh); err != nil {
		t.Fatal(err)
	}
	o[p.Masked()] = nh
	if tb.Len() != len(o) {
		t.Fatalf("after Insert(%v, %d): Len = %d, want %d", p, nh, tb.Len(), len(o))
	}
}

// check holds every probe's lookup to the oracle's.
func (o oracle) check(t testing.TB, tb *Table, probes []uint32) {
	t.Helper()
	for _, a := range probes {
		wantNH, wantOK := o.lookup(a)
		gotNH, gotOK := tb.LookupUint(a)
		if gotOK != wantOK || gotNH != wantNH {
			t.Fatalf("Lookup(%v) = %d,%v want %d,%v", u32ToAddr(a), gotNH, gotOK, wantNH, wantOK)
		}
	}
}

func TestAgainstLinearScan(t *testing.T) {
	// Property: table lookup == brute-force longest-match over the same
	// rule set, probed at every rule's boundaries and at random addresses.
	rng := rand.New(rand.NewSource(42))
	randPrefix := func(bits int) netip.Prefix {
		p, _ := u32ToAddr(rng.Uint32()).Prefix(bits)
		return p
	}
	var rules []netip.Prefix
	for i := 0; i < 300; i++ {
		rules = append(rules, randPrefix(rng.Intn(33)))
	}
	// Nested families, so that /25+ prefixes land under /17–/24 and /0–/16
	// ones: each a random /32 and every shorter prefix of it down to /0
	// in steps, and a few /25–/32 siblings beside it.
	for i := 0; i < 8; i++ {
		leaf := u32ToAddr(rng.Uint32())
		for bits := 32; bits >= 0; bits -= 1 + rng.Intn(5) {
			p, _ := leaf.Prefix(bits)
			rules = append(rules, p)
		}
		for j := 0; j < 4; j++ {
			p, _ := u32ToAddr(ipv4ToUint(leaf) ^ uint32(rng.Intn(128))).Prefix(25 + rng.Intn(8))
			rules = append(rules, p)
		}
	}
	var probes []uint32
	for _, p := range rules {
		probes = append(probes, bounds(p)...)
	}
	for i := 0; i < 2000; i++ {
		probes = append(probes, rng.Uint32())
	}
	// Longer prefixes under shorter ones, and the other way round, in
	// both insertion orders (and the random order they were drawn in).
	byLen := func(a, b netip.Prefix) int { return a.Bits() - b.Bits() }
	asc := slices.Clone(rules)
	slices.SortStableFunc(asc, byLen)
	desc := slices.Clone(asc)
	slices.Reverse(desc)
	for name, order := range map[string][]netip.Prefix{"drawn": rules, "short-first": asc, "long-first": desc} {
		t.Run(name, func(t *testing.T) {
			tb, o := New(), oracle{}
			for i, p := range order {
				// Later inserts replace earlier ones for identical prefixes.
				o.insert(t, tb, p, i+1)
			}
			o.check(t, tb, probes)
		})
	}
}

// evalRoutes replays the L3 forwarder's FIB (nf.NewL3Forwarder): the
// default route to next hop 0, then n pseudo-random /8–/24 prefixes from
// seed 0x13f4d with next hops 1+i%64.
func evalRoutes(n int) (pfx []netip.Prefix, nh []int) {
	pfx, nh = []netip.Prefix{mustPrefix("0.0.0.0/0")}, []int{0}
	rng := rand.New(rand.NewSource(0x13f4d))
	for i := 0; i < n; i++ {
		raw := rng.Uint32()
		p, _ := u32ToAddr(raw).Prefix(8 + rng.Intn(17))
		pfx, nh = append(pfx, p), append(nh, 1+i%64)
	}
	return pfx, nh
}

func buildEval(tb testing.TB, n int) *Table {
	pfx, nh := evalRoutes(n)
	t := New()
	for i, p := range pfx {
		if err := t.Insert(p, nh[i]); err != nil {
			tb.Fatal(err)
		}
	}
	return t
}

// fwd64Dsts are the destinations of the benchmark's fwd64 traffic.
func fwd64Dsts() []uint32 {
	var d []uint32
	for i := uint32(1); i <= 16; i++ {
		d = append(d, 10<<24|100<<16|i)
	}
	return d
}

// TestEvalFIB holds the evaluation FIB (1000 routes, as nf's
// DefaultRouteCount) to the oracle at every route's boundaries.
func TestEvalFIB(t *testing.T) {
	pfx, nh := evalRoutes(1000)
	tb, o := New(), oracle{}
	var probes []uint32
	for i, p := range pfx {
		o.insert(t, tb, p, nh[i])
		probes = append(probes, bounds(p)...)
	}
	o.check(t, tb, append(probes, fwd64Dsts()...))
}

// FuzzLPM drives the table with arbitrary insert sequences — prefixes of
// /0–/32 in any order, and earlier prefixes re-inserted with new next
// hops — and holds every lookup to the oracle: at each prefix's first
// and last address, one either side of both, and at random addresses.
func FuzzLPM(f *testing.F) {
	f.Add([]byte{10, 0, 0, 0, 8, 1, 10, 1, 2, 3, 32, 2, 0, 0, 0, 0, 0, 3}, int64(1))
	f.Add([]byte{192, 168, 1, 128, 25, 7, 192, 168, 0, 0, 16, 8, 192, 168, 1, 0, 24, 9, 0, 0, 0, 0x80, 0x80, 10}, int64(2))
	f.Add([]byte{1, 2, 3, 4, 30, 1, 1, 2, 3, 4, 17, 2, 1, 2, 3, 4, 0x81, 3, 1, 2, 3, 4, 0x80, 4}, int64(3))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		tb, o := New(), oracle{}
		var seen []netip.Prefix
		for ; len(data) >= 6 && len(seen) < 64; data = data[6:] {
			// A record is an address, a control byte and a next hop. A
			// control byte with the top bit set re-inserts an earlier
			// prefix; otherwise its value mod 33 is the prefix length.
			ctl, nh := data[4], int(data[5])
			var p netip.Prefix
			if ctl&0x80 != 0 && len(seen) > 0 {
				p = seen[int(ctl&0x7f)%len(seen)]
			} else {
				p, _ = u32ToAddr(binary.BigEndian.Uint32(data)).Prefix(int(ctl) % 33)
				seen = append(seen, p)
			}
			o.insert(t, tb, p, nh)
		}
		var probes []uint32
		for _, p := range seen {
			probes = append(probes, bounds(p)...)
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 64; i++ {
			probes = append(probes, rng.Uint32())
		}
		o.check(t, tb, probes)
	})
}

func BenchmarkLookup1000(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	tb := New()
	for i := 0; i < 1000; i++ {
		raw := rng.Uint32()
		addr := netip.AddrFrom4([4]byte{byte(raw >> 24), byte(raw >> 16), byte(raw >> 8), byte(raw)})
		pfx, _ := addr.Prefix(8 + rng.Intn(25))
		tb.Insert(pfx, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.LookupUint(uint32(i) * 2654435761)
	}
}

// BenchmarkEvalBuild is the cost of building the evaluation FIB, which
// the first L3 forwarder of a process pays.
func BenchmarkEvalBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buildEval(b, 1000)
	}
}

var sinkNH int

// BenchmarkEvalLookupFwd64 is the forwarder's per-packet lookup on
// fwd64's 16 destinations.
func BenchmarkEvalLookupFwd64(b *testing.B) {
	tb, dsts := buildEval(b, 1000), fwd64Dsts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nh, _ := tb.LookupUint(dsts[i&15])
		sinkNH += nh
	}
}
