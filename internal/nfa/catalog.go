package nfa

import (
	"slices"
	"sort"
	"sync"

	"nfp/internal/packet"
)

// Canonical NF type names used across the catalog, the orchestrator and
// the dataplane NF registry.
const (
	NFFirewall  = "firewall"
	NFNIDS      = "nids"
	NFGateway   = "gateway"
	NFLB        = "lb"
	NFCaching   = "caching"
	NFVPN       = "vpn"
	NFNAT       = "nat"
	NFProxy     = "proxy"
	NFCompress  = "compression"
	NFShaper    = "shaper"
	NFMonitor   = "monitor"
	NFL3Fwd     = "l3fwd"
	NFIDS       = "ids" // evaluation IDS (Snort-like, detection only)
	NFIPS       = "ips" // intrusion *prevention*: NIDS actions + drop
	NFSynthetic = "synthetic"
)

// tuple is the 5-tuple read set shared by many profiles.
func tupleReads() []Action {
	return []Action{
		Read(packet.FieldSrcIP), Read(packet.FieldDstIP),
		Read(packet.FieldSrcPort), Read(packet.FieldDstPort),
	}
}

// DefaultCatalog returns the NF action table of Table 2: commonly
// deployed NFs, their actions on packets, and their deployment share in
// enterprise networks. Rows whose exact field columns are ambiguous in
// the paper's table are resolved to the behaviour of the cited product
// (documented per row); EXPERIMENTS.md reports the pair statistics this
// catalog yields next to the paper's.
func DefaultCatalog() []Profile {
	return []Profile{
		{
			// iptables: filters on the 5-tuple, may drop.
			Name:        NFFirewall,
			DeployShare: 0.26,
			Actions:     append(tupleReads(), Drop()),
		},
		{
			// NIDS cluster: inspects headers and payload, alerts only.
			Name:        NFNIDS,
			DeployShare: 0.20,
			Actions:     append(tupleReads(), Read(packet.FieldPayload)),
		},
		{
			// Conf/voice/media gateway (Cisco MGX): reads addresses.
			Name:        NFGateway,
			DeployShare: 0.19,
			Actions:     []Action{Read(packet.FieldSrcIP), Read(packet.FieldDstIP)},
		},
		{
			// F5/A10 load balancer: rewrites addresses, reads ports.
			Name:        NFLB,
			DeployShare: 0.10,
			Actions: []Action{
				Read(packet.FieldSrcIP), Write(packet.FieldSrcIP),
				Read(packet.FieldDstIP), Write(packet.FieldDstIP),
				Read(packet.FieldSrcPort), Read(packet.FieldDstPort),
			},
		},
		{
			// Nginx cache: reads destination, port and payload.
			Name:        NFCaching,
			DeployShare: 0.10,
			Actions: []Action{
				Read(packet.FieldDstIP), Read(packet.FieldDstPort),
				Read(packet.FieldPayload),
			},
		},
		{
			// OpenVPN / IPsec AH: reads addresses, rewrites payload
			// (encryption), adds the AH header.
			Name:        NFVPN,
			DeployShare: 0.07,
			Actions: []Action{
				Read(packet.FieldSrcIP), Read(packet.FieldDstIP),
				Read(packet.FieldPayload), Write(packet.FieldPayload),
				AddRm(packet.FieldAH),
			},
		},
		{
			// iptables NAT: rewrites the whole 5-tuple; drops unsolicited
			// inbound packets and new flows once its port space or
			// binding table is full.
			Name: NFNAT,
			Actions: []Action{
				Read(packet.FieldSrcIP), Write(packet.FieldSrcIP),
				Read(packet.FieldDstIP), Write(packet.FieldDstIP),
				Read(packet.FieldSrcPort), Write(packet.FieldSrcPort),
				Read(packet.FieldDstPort), Write(packet.FieldDstPort),
				Drop(),
			},
		},
		{
			// Squid proxy: terminates and re-originates connections.
			Name: NFProxy,
			Actions: []Action{
				Read(packet.FieldDstIP), Write(packet.FieldDstIP),
				Read(packet.FieldPayload), Write(packet.FieldPayload),
			},
		},
		{
			// Cisco IOS compression: rewrites payload.
			Name:    NFCompress,
			Actions: []Action{Read(packet.FieldPayload), Write(packet.FieldPayload)},
		},
		{
			// Linux tc shaper: delays/schedules, touches no field.
			Name:    NFShaper,
			Actions: nil,
		},
		{
			// NetFlow monitor: per-flow counters over the 5-tuple.
			Name:    NFMonitor,
			Actions: tupleReads(),
		},
	}
}

// EvalProfiles returns the action profiles of the six NFs implemented
// for the evaluation (§6.1) plus NAT and the synthetic NF, keyed by
// name. These drive both the orchestrator and the dataplane registry.
func EvalProfiles() map[string]Profile {
	m := map[string]Profile{
		NFL3Fwd: {
			// LPM lookup on the destination address.
			Name:    NFL3Fwd,
			Actions: []Action{Read(packet.FieldDstIP)},
		},
		NFMonitor: {Name: NFMonitor, Actions: tupleReads()},
		NFIDS: {
			// Snort-like inline IDS: signature matching over headers and
			// payload, with the ability to drop on a match. The drop
			// action is what keeps the IDS at the head of the paper's
			// west-east graph (Fig 13) instead of joining the parallel
			// stage.
			Name:    NFIDS,
			Actions: append(append(tupleReads(), Read(packet.FieldPayload)), Drop()),
		},
		NFIPS: {
			Name:    NFIPS,
			Actions: append(append(tupleReads(), Read(packet.FieldPayload)), Drop()),
		},
		NFSynthetic: {
			// The Fig 9 synthetic firewall: "modifies the packet" then
			// busy-loops; it writes the TTL so that its write set is
			// disjoint from the tuple fields other NFs read.
			Name:    NFSynthetic,
			Actions: append(tupleReads(), Write(packet.FieldTTL)),
		},
	}
	for _, p := range DefaultCatalog() {
		switch p.Name {
		case NFFirewall, NFLB, NFVPN, NFNAT, NFCaching, NFNIDS, NFGateway:
			m[p.Name] = p
		}
	}
	return m
}

// builtins is every built-in profile by name — the evaluation
// profiles, then the rest of the Table 2 catalog — each carrying its
// measured CostNS. It is built once and never written: LookupProfile
// hands out clones.
var builtins = sync.OnceValue(func() map[string]Profile {
	m := EvalProfiles()
	for _, p := range DefaultCatalog() {
		if _, ok := m[p.Name]; !ok {
			m[p.Name] = p
		}
	}
	for name, p := range m {
		p.CostNS = builtinCostNS[name]
		m[name] = p
	}
	return m
})

// LookupProfile finds a profile by NF name across the default catalog
// and the evaluation profiles, carrying the NF's measured CostNS. The
// profile's Actions are the caller's own to change.
func LookupProfile(name string) (Profile, bool) {
	p, ok := builtins()[name]
	p.Actions = slices.Clone(p.Actions)
	return p, ok
}

// LookupCostFree is LookupProfile with every cost left unknown. A
// policy compiled through it gets Algorithm 1's graph, every stage it
// proves correct kept parallel: the paper's shapes, whatever they cost
// on the machine at hand.
func LookupCostFree(name string) (Profile, bool) {
	p, ok := LookupProfile(name)
	p.CostNS = 0
	return p, ok
}

// Names returns every NF name LookupProfile resolves, sorted.
func Names() []string {
	var out []string
	for name := range builtins() {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
