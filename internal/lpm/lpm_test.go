package lpm

import (
	"math/rand"
	"net/netip"
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
}

func TestDefaultRouteOnly(t *testing.T) {
	tb := New()
	tb.Insert(mustPrefix("0.0.0.0/0"), 7)
	nh, ok := tb.Lookup(netip.MustParseAddr("203.0.113.9"))
	if !ok || nh != 7 {
		t.Errorf("default route lookup = %d,%v", nh, ok)
	}
}

func TestAgainstLinearScan(t *testing.T) {
	// Property: trie lookup == brute-force longest-match over the same
	// random rule set.
	rng := rand.New(rand.NewSource(42))
	type rule struct {
		pfx netip.Prefix
		nh  int
	}
	tb := New()
	var rules []rule
	for i := 0; i < 300; i++ {
		bits := rng.Intn(33)
		raw := rng.Uint32()
		addr := netip.AddrFrom4([4]byte{byte(raw >> 24), byte(raw >> 16), byte(raw >> 8), byte(raw)})
		pfx, err := addr.Prefix(bits)
		if err != nil {
			t.Fatal(err)
		}
		r := rule{pfx, i + 1}
		rules = append(rules, r)
		tb.Insert(pfx, r.nh)
	}
	// Later inserts replace earlier ones for identical prefixes; mimic.
	byPrefix := map[netip.Prefix]int{}
	for _, r := range rules {
		byPrefix[r.pfx] = r.nh
	}
	for i := 0; i < 2000; i++ {
		raw := rng.Uint32()
		addr := netip.AddrFrom4([4]byte{byte(raw >> 24), byte(raw >> 16), byte(raw >> 8), byte(raw)})
		wantNH, wantOK, wantBits := 0, false, -1
		for pfx, nh := range byPrefix {
			if pfx.Contains(addr) && pfx.Bits() > wantBits {
				wantNH, wantOK, wantBits = nh, true, pfx.Bits()
			}
		}
		gotNH, gotOK := tb.Lookup(addr)
		if gotOK != wantOK || (gotOK && gotNH != wantNH) {
			t.Fatalf("Lookup(%v) = %d,%v want %d,%v", addr, gotNH, gotOK, wantNH, wantOK)
		}
	}
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
