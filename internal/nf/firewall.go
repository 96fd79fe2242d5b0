package nf

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sync"

	"nfp/internal/nfa"
	"nfp/internal/packet"
	"nfp/internal/ruleindex"
)

// DefaultACLSize is the evaluation firewall's rule count ("an Access
// Control List (ACL) containing 100 rules", §6.1).
const DefaultACLSize = 100

// ACLAction is a firewall rule's disposition.
type ACLAction uint8

const (
	// Allow passes matching packets.
	Allow ACLAction = iota
	// Deny drops matching packets.
	Deny
)

// ACLRule is one 5-tuple filter rule, first-match-wins.
type ACLRule struct {
	Src, Dst             netip.Prefix
	SrcPortLo, SrcPortHi uint16 // inclusive; 0,0xffff = any
	DstPortLo, DstPortHi uint16
	Proto                uint8 // 0 = any
	Action               ACLAction
}

// Matches reports whether the rule covers the flow key. It is the
// executable spec of a rule: the firewall matches through the compiled
// index (indexRule), and the tests hold the index to this.
func (r ACLRule) Matches(k packet.FlowKey) bool {
	return r.Src.Contains(netip.AddrFrom4(k.Src)) && r.Dst.Contains(netip.AddrFrom4(k.Dst)) &&
		k.SrcPort >= r.SrcPortLo && k.SrcPort <= r.SrcPortHi &&
		k.DstPort >= r.DstPortLo && k.DstPort <= r.DstPortHi &&
		(r.Proto == 0 || r.Proto == k.Proto)
}

// indexRule is the rule in the rule index's input form. ok is false for
// a rule no IPv4 packet can satisfy: unlike a classifier Match, a zero
// prefix is not a wildcard here, and neither is an IPv6 one.
func (r ACLRule) indexRule() (ruleindex.Rule, bool) {
	src, srcOK := ruleindex.FromNetip(r.Src)
	dst, dstOK := ruleindex.FromNetip(r.Dst)
	return ruleindex.Rule{
		Src: src, Dst: dst,
		SrcPorts: ruleindex.Ports{Lo: r.SrcPortLo, Hi: r.SrcPortHi},
		DstPorts: ruleindex.Ports{Lo: r.DstPortLo, Hi: r.DstPortHi},
		Proto:    r.Proto,
	}, srcOK && dstOK
}

// Firewall is a stateless packet filter "similar to the Click IPFilter
// element. It passes or drops packets according to the ACL" (§6.1).
type Firewall struct {
	rules   []ACLRule
	index   *ruleindex.Index // rules compiled for first-match lookup
	def     ACLAction
	passed  uint64
	dropped uint64
}

// acls holds the firewall of each rule count as built and never run:
// its rules and their index are written once, on first use, and every
// firewall, shard, restart and reload of that count reads them.
var acls sync.Map // int -> *Firewall

// NewFirewall builds a firewall with n synthetic deny rules over the
// 172.16.0.0/12 space (so default generator traffic in 10/8 passes)
// and a default-allow policy. All instances share the same seed, and
// all with the same n share one rule slice and its index (acls); the
// pass/drop counters are per instance.
func NewFirewall(n int) (*Firewall, error) {
	if n < 0 {
		return nil, fmt.Errorf("firewall: negative rule count %d", n)
	}
	proto, ok := acls.Load(n)
	if !ok {
		proto, _ = acls.LoadOrStore(n, NewFirewallFromRules(syntheticACL(n), Allow))
	}
	fw := *proto.(*Firewall)
	return &fw, nil
}

// syntheticACL is NewFirewall's n deny rules.
func syntheticACL(n int) []ACLRule {
	rules := make([]ACLRule, 0, n)
	rng := rand.New(rand.NewSource(0xac1))
	for i := 0; i < n; i++ {
		src := netip.AddrFrom4([4]byte{172, byte(16 + rng.Intn(16)), byte(rng.Intn(256)), 0})
		pfx, _ := src.Prefix(24)
		rules = append(rules, ACLRule{
			Src: pfx, Dst: netip.MustParsePrefix("0.0.0.0/0"),
			SrcPortLo: 0, SrcPortHi: 0xffff,
			DstPortLo: 0, DstPortHi: 0xffff,
			Action: Deny,
		})
	}
	return rules
}

// NewFirewallFromRules builds a firewall from an explicit ACL, with an
// index of its own.
func NewFirewallFromRules(rules []ACLRule, def ACLAction) *Firewall {
	return &Firewall{
		rules: rules,
		def:   def,
		index: ruleindex.Build(len(rules), func(i int) (ruleindex.Rule, bool) {
			return rules[i].indexRule()
		}),
	}
}

// Name implements NF.
func (fw *Firewall) Name() string { return nfa.NFFirewall }

// Process applies the first ACL rule covering the packet, else the
// default action.
func (fw *Firewall) Process(p *packet.Packet) Verdict {
	action := Deny // unparseable traffic is dropped, like a real filter
	if fk, err := p.FlowKey(); err == nil {
		action = fw.def
		if i := fw.index.Lookup(fk); i >= 0 {
			action = fw.rules[i].Action
		}
	}
	if action == Deny {
		fw.dropped++
		return Drop
	}
	fw.passed++
	return Pass
}

// ProcessBatch implements BatchProcessor: one dynamic dispatch per burst
// instead of per packet.
func (fw *Firewall) ProcessBatch(pkts []*packet.Packet, verdicts []Verdict) {
	for i, p := range pkts {
		verdicts[i] = fw.Process(p)
	}
}

// Stats returns (passed, dropped) packet counts.
func (fw *Firewall) Stats() (passed, dropped uint64) { return fw.passed, fw.dropped }
