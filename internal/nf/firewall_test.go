package nf

import (
	"math/rand"
	"net/netip"
	"testing"

	"nfp/internal/flow"
	"nfp/internal/packet"
)

// randomACLRule draws from a small universe so nested, overlapping and
// duplicate rules are common, and covers the ACL's own edge semantics:
// a zero prefix matches NOTHING (it is not a wildcard here), IPv6
// prefixes never match, and port ranges run from any (0–0xffff) through
// lo==hi to empty (lo>hi).
func randomACLRule(rng *rand.Rand) ACLRule {
	prefix := func() netip.Prefix {
		addrs := []string{"10.0.0.0", "10.0.0.1", "10.0.1.7", "172.16.0.1", "0.0.0.0", "255.255.255.255"}
		a := netip.MustParseAddr(addrs[rng.Intn(len(addrs))])
		switch rng.Intn(12) {
		case 0:
			return netip.Prefix{}
		case 1:
			return netip.MustParsePrefix("2001:db8::/32")
		case 2:
			return netip.PrefixFrom(netip.AddrFrom16(a.As16()), 96+rng.Intn(33))
		case 3, 4, 5:
			return netip.PrefixFrom(a, 0)
		case 6:
			return netip.PrefixFrom(a, 32)
		default:
			return netip.PrefixFrom(a, rng.Intn(33)) // host bits left set
		}
	}
	ports := func() (lo, hi uint16) {
		pool := []uint16{0, 1, 79, 80, 81, 1023, 1024, 0x7fff, 0x8000, 0xfffe, 0xffff}
		switch rng.Intn(4) {
		case 0, 1:
			return 0, 0xffff
		case 2:
			p := pool[rng.Intn(len(pool))]
			return p, p
		default:
			return pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
		}
	}
	r := ACLRule{
		Src: prefix(), Dst: prefix(),
		Proto:  []uint8{0, 0, packet.ProtoTCP, packet.ProtoUDP}[rng.Intn(4)],
		Action: ACLAction(rng.Intn(2)),
	}
	r.SrcPortLo, r.SrcPortHi = ports()
	r.DstPortLo, r.DstPortHi = ports()
	return r
}

// TestFirewallMatchesReferenceWalk holds the compiled ACL to its spec:
// on random tables the index position is the first i with
// rules[i].Matches(k), and Process and ProcessBatch return — and count —
// what that rule (or the default) says.
func TestFirewallMatchesReferenceWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var traffic []*packet.Packet
	for _, src := range []string{"10.0.0.0", "10.0.0.1", "10.0.1.7", "172.16.0.1", "192.168.0.1", "255.255.255.255"} {
		for _, dst := range []string{"10.0.0.1", "8.8.8.8", "0.0.0.0"} {
			for _, sport := range []uint16{0, 1, 80, 1023, 0x8000, 0xffff} {
				traffic = append(traffic, packet.Build(packet.BuildSpec{
					SrcIP: netip.MustParseAddr(src), DstIP: netip.MustParseAddr(dst),
					Proto:   []uint8{packet.ProtoTCP, packet.ProtoUDP}[len(traffic)%2],
					SrcPort: sport, DstPort: []uint16{80, 81, 1024, 0xfffe}[len(traffic)%4],
				}))
			}
		}
	}
	traffic = append(traffic, packet.New(make([]byte, 8))) // unparseable: dropped
	verdicts := make([]Verdict, len(traffic))

	for round := 0; round < 200; round++ {
		rules := make([]ACLRule, rng.Intn(24))
		for i := range rules {
			if i > 0 && rng.Intn(6) == 0 {
				rules[i] = rules[rng.Intn(i)]
			} else {
				rules[i] = randomACLRule(rng)
			}
		}
		def := ACLAction(rng.Intn(2))
		fw := NewFirewallFromRules(rules, def)
		var wantPassed, wantDropped uint64
		want := make([]Verdict, len(traffic))
		for i, p := range traffic {
			action := Deny
			if k, err := flow.FromPacket(p); err == nil {
				pos := -1
				for j, r := range rules {
					if r.Matches(k) {
						pos = j
						break
					}
				}
				if got := fw.index.Lookup(k.Packed()); got != pos {
					t.Fatalf("round %d: index position for %v = %d, first matching rule is %d\nrules: %+v", round, k, got, pos, rules)
				}
				action = def
				if pos >= 0 {
					action = rules[pos].Action
				}
			}
			if want[i] = Pass; action == Deny {
				want[i] = Drop
				wantDropped++
			} else {
				wantPassed++
			}
			if got := fw.Process(p); got != want[i] {
				t.Fatalf("round %d: Process verdict %v, reference %v", round, got, want[i])
			}
		}
		fw.ProcessBatch(traffic, verdicts)
		for i := range verdicts {
			if verdicts[i] != want[i] {
				t.Fatalf("round %d: ProcessBatch verdict[%d] = %v, reference %v", round, i, verdicts[i], want[i])
			}
		}
		if p, d := fw.Stats(); p != 2*wantPassed || d != 2*wantDropped {
			t.Fatalf("round %d: stats %d/%d after a scalar and a batch pass, reference %d/%d", round, p, d, 2*wantPassed, 2*wantDropped)
		}
	}
}

// benchFirewallACL measures the per-packet ACL cost on traffic no rule
// matches — the evaluation's steady state, and the old walk's worst
// case — over 64 flows so consecutive packets differ.
func benchFirewallACL(b *testing.B, rules int) {
	fw, err := NewFirewall(rules)
	if err != nil {
		b.Fatal(err)
	}
	pkts := make([]*packet.Packet, 64)
	for i := range pkts {
		pkts[i] = tcpPacket("10.1.2.3", "10.4.5.6", uint16(1000+i), 80, nil)
	}
	verdicts := make([]Verdict, len(pkts))
	b.ResetTimer()
	for i := 0; i < b.N; i += len(pkts) {
		fw.ProcessBatch(pkts, verdicts)
	}
	if passed, _ := fw.Stats(); passed == 0 {
		b.Fatal("nothing passed")
	}
}

func BenchmarkFirewall_ACL100(b *testing.B)   { benchFirewallACL(b, 100) }
func BenchmarkFirewall_ACL10000(b *testing.B) { benchFirewallACL(b, 10000) }
