package ruleindex

import (
	"encoding/binary"
	"math/rand"
	"net/netip"
	"testing"

	"nfp/internal/packet"
)

// tableRule is one rule of a test table; never marks a position the
// caller reports as covering nothing (Build's !ok).
type tableRule struct {
	Rule
	never bool
}

// covers is the reference semantics of one rule, written without the
// index's mask arithmetic.
func (r tableRule) covers(k packet.FlowKey) bool {
	inPrefix := func(p Prefix, a [4]byte) bool {
		if p.Bits == 0 {
			return true
		}
		return (binary.BigEndian.Uint32(a[:])^p.Addr)>>(32-uint32(p.Bits)) == 0
	}
	return !r.never &&
		inPrefix(r.Src, k.Src) && inPrefix(r.Dst, k.Dst) &&
		k.SrcPort >= r.SrcPorts.Lo && k.SrcPort <= r.SrcPorts.Hi &&
		k.DstPort >= r.DstPorts.Lo && k.DstPort <= r.DstPorts.Hi &&
		(r.Proto == 0 || r.Proto == k.Proto)
}

// walk is the linear first-match walk the index replaces.
func walk(rules []tableRule, k packet.FlowKey) int {
	for i, r := range rules {
		if r.covers(k) {
			return i
		}
	}
	return -1
}

func build(rules []tableRule) *Index {
	return Build(len(rules), func(i int) (Rule, bool) { return rules[i].Rule, !rules[i].never })
}

// boundaryKeys returns keys on and just off every edge of r: inside the
// prefixes, one bit outside them, and at lo-1, lo, hi, hi+1 of each
// port range, with the rule's protocol and another one.
func boundaryKeys(r Rule) []packet.FlowKey {
	addrs := func(p Prefix) [][4]byte {
		host := uint32(0xffffffff) >> p.Bits
		out := p.Addr
		if p.Bits > 0 {
			out ^= 1 << (32 - uint32(p.Bits)) // flip the last prefix bit
		}
		var a, b, c [4]byte
		binary.BigEndian.PutUint32(a[:], p.Addr)
		binary.BigEndian.PutUint32(b[:], p.Addr|host&0x00010203)
		binary.BigEndian.PutUint32(c[:], out)
		return [][4]byte{a, b, c}
	}
	ports := func(p Ports) []uint16 {
		return []uint16{p.Lo, p.Hi, p.Lo - 1, p.Hi + 1}
	}
	var keys []packet.FlowKey
	for _, src := range addrs(r.Src) {
		for _, dst := range addrs(r.Dst) {
			for _, sp := range ports(r.SrcPorts) {
				for _, dp := range ports(r.DstPorts) {
					keys = append(keys,
						packet.FlowKey{Src: src, Dst: dst, SrcPort: sp, DstPort: dp, Proto: r.Proto},
						packet.FlowKey{Src: src, Dst: dst, SrcPort: sp, DstPort: dp, Proto: r.Proto + 1})
				}
			}
		}
	}
	return keys
}

// checkTable holds the index of rules to the reference walk on keys plus
// every rule's boundary keys.
func checkTable(t *testing.T, rules []tableRule, keys []packet.FlowKey) {
	t.Helper()
	ix := build(rules)
	for _, r := range rules {
		keys = append(keys, boundaryKeys(r.Rule)...)
	}
	for _, k := range keys {
		if got, want := ix.Lookup(k), walk(rules, k); got != want {
			t.Fatalf("Lookup(%+v) = %d, first covering rule is %d (table of %d rules, %d tuples)",
				k, got, want, len(rules), ix.Tuples())
		}
	}
}

// randomRule draws from a deliberately small universe — a few base
// addresses, every prefix length class, a few ports — so that nesting,
// overlap and exact duplicates are the norm, not the exception.
func randomRule(rng *rand.Rand) tableRule {
	prefix := func() Prefix {
		bases := []uint32{0x0a000000, 0x0a000100, 0x0a000101, 0xac100000, 0xffffffff, 0}
		lens := []uint8{0, 1, 8, 16, 23, 24, 31, 32}
		// Low bits are left set: Build must mask them off.
		return Prefix{Addr: bases[rng.Intn(len(bases))] | uint32(rng.Intn(4)), Bits: lens[rng.Intn(len(lens))]}
	}
	ports := func() Ports {
		pool := []uint16{0, 1, 79, 80, 81, 1023, 1024, 0x7fff, 0x8000, 0xfffe, 0xffff}
		switch rng.Intn(5) {
		case 0, 1:
			return AnyPort
		case 2:
			return Port(pool[rng.Intn(len(pool))])
		default:
			// Lo > Hi happens and must cover nothing.
			return Ports{pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]}
		}
	}
	protos := []uint8{0, 0, packet.ProtoTCP, packet.ProtoUDP, 255}
	return tableRule{
		Rule: Rule{Src: prefix(), Dst: prefix(), SrcPorts: ports(), DstPorts: ports(),
			Proto: protos[rng.Intn(len(protos))]},
		never: rng.Intn(16) == 0,
	}
}

func TestIndexMatchesReferenceWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		rules := make([]tableRule, rng.Intn(40))
		for i := range rules {
			if i > 0 && rng.Intn(8) == 0 {
				rules[i] = rules[rng.Intn(i)] // exact duplicate of an earlier rule
				continue
			}
			rules[i] = randomRule(rng)
		}
		keys := make([]packet.FlowKey, 64)
		for i := range keys {
			binary.BigEndian.PutUint32(keys[i].Src[:], rng.Uint32())
			binary.BigEndian.PutUint32(keys[i].Dst[:], rng.Uint32())
			keys[i].SrcPort, keys[i].DstPort = uint16(rng.Uint32()), uint16(rng.Uint32())
			keys[i].Proto = uint8(rng.Uint32())
		}
		checkTable(t, rules, keys)
	}
}

func TestEmptyIndex(t *testing.T) {
	var zero Index
	for _, ix := range []*Index{&zero, build(nil), build([]tableRule{{never: true}})} {
		if got := ix.Lookup(packet.FlowKey{}); got != -1 {
			t.Errorf("empty index matched position %d", got)
		}
		if ix.Tuples() != 0 {
			t.Errorf("empty index has %d tuples", ix.Tuples())
		}
	}
}

// TestPortsExpandTilesExactly checks range→prefix expansion on its own:
// the prefixes are aligned, disjoint, in order, and cover exactly the
// range.
func TestPortsExpandTilesExactly(t *testing.T) {
	ranges := []Ports{AnyPort, Port(0), Port(80), Port(0xffff), {1, 0xfffe}, {0, 0x7fff},
		{0x8000, 0xffff}, {1024, 65535}, {80, 81}, {81, 82}, {5, 4}, {0xffff, 0}}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		ranges = append(ranges, Ports{uint16(rng.Uint32()), uint16(rng.Uint32())})
	}
	for _, r := range ranges {
		got := r.expand(nil)
		if len(got) > 30 {
			t.Errorf("%v expands to %d prefixes, more than a 16-bit range can need", r, len(got))
		}
		next := uint32(r.Lo)
		for _, p := range got {
			size := uint32(^p.mask) + 1
			if uint32(p.value) != next || p.value&^p.mask != 0 {
				t.Fatalf("%v: prefix %#x/%#x is misaligned or leaves a gap at %#x", r, p.value, p.mask, next)
			}
			next += size
		}
		if r.Lo <= r.Hi && next != uint32(r.Hi)+1 {
			t.Errorf("%v: tiles end at %#x", r, next)
		}
		if r.Lo > r.Hi && len(got) != 0 {
			t.Errorf("empty range %v expanded to %v", r, got)
		}
	}
	if n := len(AnyPort.expand(nil)); n != 1 {
		t.Errorf("AnyPort expands to %d prefixes, want 1", n)
	}
	if n := len(Port(443).expand(nil)); n != 1 {
		t.Errorf("an exact port expands to %d prefixes, want 1", n)
	}
}

// TestDegenerateOneMaskPerRule is the worst case for tuple-space search:
// 256 rules, no two sharing a mask tuple, so the index is 256 one-entry
// tables and a lookup is a walk over tuples instead of over rules — the
// same bound as the list it replaced, with the same first-match result.
func TestDegenerateOneMaskPerRule(t *testing.T) {
	var rules []tableRule
	for s := uint8(17); s <= 32; s++ {
		for d := uint8(17); d <= 32; d++ {
			rules = append(rules, tableRule{Rule: Rule{
				// Shortest prefixes first: a key inside them stops after
				// one probe, a key outside all of them pays all 256.
				Src: Prefix{Addr: 0x0a000000, Bits: s}, Dst: Prefix{Addr: 0x0a010000, Bits: d},
				SrcPorts: AnyPort, DstPorts: AnyPort,
			}})
		}
	}
	ix := build(rules)
	if ix.Tuples() != len(rules) {
		t.Fatalf("%d tuples for %d one-mask rules", ix.Tuples(), len(rules))
	}
	for i, tp := range ix.tuples {
		if tp.minPos != uint32(i) {
			t.Fatalf("tuple %d starts at position %d: tuples are not in first-position order", i, tp.minPos)
		}
	}
	checkTable(t, rules, []packet.FlowKey{
		{Src: [4]byte{10, 0, 0, 0}, Dst: [4]byte{10, 1, 0, 0}},       // every rule covers it: position 0
		{Src: [4]byte{10, 0, 0, 1}, Dst: [4]byte{10, 1, 0, 1}},       // only the shorter prefixes
		{Src: [4]byte{10, 0, 127, 255}, Dst: [4]byte{10, 1, 127, 9}}, // only the /17 × /17 rule
		{Src: [4]byte{10, 0, 128, 0}, Dst: [4]byte{10, 1, 0, 0}},     // nothing: all 256 probed
	})
}

func TestFromNetip(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Prefix
		ok   bool
	}{
		{"10.1.2.3/8", Prefix{0x0a010203, 8}, true}, // unmasked input is legal; Build masks
		{"0.0.0.0/0", Prefix{0, 0}, true},
		{"255.255.255.255/32", Prefix{0xffffffff, 32}, true},
		{"::/0", Prefix{}, false},
		{"2001:db8::/32", Prefix{}, false},
		{"::ffff:10.0.0.0/104", Prefix{}, false},
	} {
		got, ok := FromNetip(netip.MustParsePrefix(c.in))
		if got != c.want || ok != c.ok {
			t.Errorf("FromNetip(%s) = %+v, %v; want %+v, %v", c.in, got, ok, c.want, c.ok)
		}
	}
	if _, ok := FromNetip(netip.Prefix{}); ok {
		t.Error("the zero prefix converted")
	}
}

// FuzzRuleIndex decodes arbitrary bytes into a rule table and a key
// list and holds the index to the reference walk. Rules take 20 bytes:
// src addr+len, dst addr+len, two port ranges, proto, and a shape byte
// selecting any/exact/range per port field and the covers-nothing flag;
// prefix lengths above 32 wrap, so /0 and /32 are both common. Leftover
// bytes become keys, 13 each; checkTable adds every rule's boundary keys.
func FuzzRuleIndex(f *testing.F) {
	rule := func(src uint32, sb uint8, dst uint32, db uint8, sLo, sHi, dLo, dHi uint16, proto, shape uint8) []byte {
		b := binary.BigEndian.AppendUint32(nil, src)
		b = append(b, sb)
		b = binary.BigEndian.AppendUint32(b, dst)
		b = append(b, db)
		for _, p := range []uint16{sLo, sHi, dLo, dHi} {
			b = binary.BigEndian.AppendUint16(b, p)
		}
		return append(b, proto, shape)
	}
	const rangeBoth = 0x0a // shape: both port fields are lo..hi ranges
	f.Add([]byte{})
	f.Add(rule(0x0a000000, 8, 0, 0, 0, 0, 80, 80, 6, 0x04))               // classifier form
	f.Add(rule(0xac100000, 24, 0, 0, 0, 0xffff, 0, 0xffff, 0, rangeBoth)) // the §6.1 ACL form
	f.Add(rule(0x0a000001, 32, 0x0a000002, 32, 1, 0xfffe, 1024, 65535, 17, rangeBoth))
	f.Add(append(rule(0x0a000000, 8, 0, 0, 5, 5, 9, 3, 0, rangeBoth), // lo==hi and lo>hi
		rule(0x0a000000, 8, 0, 0, 5, 5, 9, 3, 0, rangeBoth)...)) // duplicate
	f.Add(append(rule(0x0a000000, 16, 0, 0, 0, 0, 0, 0, 0, 0),
		rule(0x0a000000, 8, 0, 0, 0, 0, 0, 0, 0, 0x10)...)) // nested, second covers nothing
	f.Fuzz(func(t *testing.T, data []byte) {
		const ruleLen, keyLen, maxRules = 20, 13, 64
		var rules []tableRule
		for len(data) >= ruleLen && len(rules) < maxRules {
			b := data[:ruleLen]
			data = data[ruleLen:]
			ports := func(shape uint8, lo, hi uint16) Ports {
				switch shape & 3 {
				case 0:
					return AnyPort
				case 1:
					return Port(lo)
				default:
					return Ports{lo, hi}
				}
			}
			shape := b[19]
			rules = append(rules, tableRule{
				Rule: Rule{
					Src:      Prefix{Addr: binary.BigEndian.Uint32(b[0:]), Bits: b[4] % 33},
					Dst:      Prefix{Addr: binary.BigEndian.Uint32(b[5:]), Bits: b[9] % 33},
					SrcPorts: ports(shape, binary.BigEndian.Uint16(b[10:]), binary.BigEndian.Uint16(b[12:])),
					DstPorts: ports(shape>>2, binary.BigEndian.Uint16(b[14:]), binary.BigEndian.Uint16(b[16:])),
					Proto:    b[18],
				},
				never: shape&0x10 != 0,
			})
		}
		var keys []packet.FlowKey
		for len(data) >= keyLen {
			b := data[:keyLen]
			data = data[keyLen:]
			keys = append(keys, packet.FlowKey{
				Src: [4]byte(b[0:4]), Dst: [4]byte(b[4:8]),
				SrcPort: binary.BigEndian.Uint16(b[8:]), DstPort: binary.BigEndian.Uint16(b[10:]),
				Proto: b[12],
			})
		}
		checkTable(t, rules, keys)
	})
}

// benchIndex builds n /32-source rules (one tuple) behind tuples-1
// one-rule tuples of distinct prefix lengths, none matching the key.
func benchIndex(n, tuples int) (*Index, packet.FlowKey) {
	var rules []tableRule
	for i := 1; i < tuples; i++ {
		rules = append(rules, tableRule{Rule: Rule{
			Src: Prefix{Addr: 0xac100000, Bits: uint8(8 + i%24)}, Dst: Prefix{Addr: 0xac100000, Bits: uint8(8 + i/24)},
			SrcPorts: AnyPort, DstPorts: AnyPort}})
	}
	for i := 0; i < n; i++ {
		rules = append(rules, tableRule{Rule: Rule{
			Src: Prefix{Addr: 0xc0a80000 + uint32(i), Bits: 32}, SrcPorts: AnyPort, DstPorts: AnyPort}})
	}
	return build(rules), packet.FlowKey{Src: [4]byte{10, 0, 0, 1}, Dst: [4]byte{10, 0, 0, 2}, SrcPort: 1, DstPort: 80, Proto: 6}
}

var sink int

func benchLookup(b *testing.B, n, tuples int) {
	ix, k := benchIndex(n, tuples)
	if ix.Tuples() != tuples {
		b.Fatalf("built %d tuples, want %d", ix.Tuples(), tuples)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += ix.Lookup(k)
	}
}

// A full miss costs one probe per tuple whatever the rule count.
func BenchmarkLookupMiss_Rules1024_Tuples1(b *testing.B)   { benchLookup(b, 1024, 1) }
func BenchmarkLookupMiss_Rules65536_Tuples1(b *testing.B)  { benchLookup(b, 65536, 1) }
func BenchmarkLookupMiss_Rules1024_Tuples256(b *testing.B) { benchLookup(b, 1024, 256) }
