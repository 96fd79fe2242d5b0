// Package nf defines the network function interface and the NF
// implementations used in the paper's evaluation (§6.1): L3 Forwarder,
// Load Balancer, Firewall, IDS, VPN and Monitor, plus NAT and the
// synthetic busy-loop NF of Figure 9.
//
// An NF is a Name and a Process function. Its action profile — what
// the orchestrator reasons about — is not asked of the instance: it
// lives in the nfa catalog under the NF's name (or is handed to
// nfp.System.RegisterNF), declared once, ahead of time. The dataplane
// calls Process from the NF's own runtime goroutine, so implementations
// may keep unsynchronized per-instance state (this models the paper's
// one-container-per-core deployment).
package nf

import (
	"fmt"
	"sort"
	"sync"

	"nfp/internal/nfa"
	"nfp/internal/packet"
)

// Verdict is the outcome of processing one packet.
type Verdict uint8

const (
	// Pass forwards the packet downstream.
	Pass Verdict = iota
	// Drop discards the packet; the NF runtime conveys the intention
	// to the merger with a nil packet (§5.2 "ignore").
	Drop
)

func (v Verdict) String() string {
	if v == Drop {
		return "drop"
	}
	return "pass"
}

// NF is a network function instance. Instances are single-goroutine:
// the runtime serializes Process calls.
type NF interface {
	// Name returns the NF type name, the key of its action profile in
	// the nfa catalog (or in nfp.System.RegisterNF).
	Name() string
	// Process handles one packet in place and returns a verdict.
	Process(p *packet.Packet) Verdict
}

// BatchProcessor is an optional NF capability: implementations process
// a whole burst of packets per call, amortizing per-packet dispatch
// overhead the way DPDK NFs amortize rte_ring synchronization over
// 32-packet bursts. ProcessBatch must be observationally identical to
// len(pkts) sequential Process calls — verdicts[i] receives pkts[i]'s
// verdict, internal state must end up exactly as the scalar loop would
// leave it. The runtime guarantees len(verdicts) >= len(pkts).
type BatchProcessor interface {
	ProcessBatch(pkts []*packet.Packet, verdicts []Verdict)
}

// ProcessAll drives one burst through an NF: the batched path when the
// NF implements BatchProcessor, otherwise the scalar fallback loop.
// This is the single entry point NF runtimes use, so burst=1 and
// burst=32 run the same code shape.
func ProcessAll(n NF, pkts []*packet.Packet, verdicts []Verdict) {
	if bp, ok := n.(BatchProcessor); ok {
		bp.ProcessBatch(pkts, verdicts)
		return
	}
	for i, p := range pkts {
		verdicts[i] = n.Process(p)
	}
}

// Factory constructs a fresh NF instance. Every instance must be
// independent (own state), mirroring per-container NF deployment.
type Factory func() (NF, error)

// Registry maps NF type names to factories. The zero value is unusable;
// use NewRegistry, which pre-registers the evaluation NFs.
type Registry struct {
	mu        sync.RWMutex
	factories map[string]Factory
}

// NewRegistry returns a registry with the evaluation NFs registered
// under their nfa catalog names.
func NewRegistry() *Registry {
	r := &Registry{factories: map[string]Factory{}}
	r.MustRegister(nfa.NFL3Fwd, func() (NF, error) { return NewL3Forwarder(DefaultRouteCount) })
	r.MustRegister(nfa.NFLB, func() (NF, error) { return NewLoadBalancer(DefaultBackendCount) })
	r.MustRegister(nfa.NFFirewall, func() (NF, error) { return NewFirewall(DefaultACLSize) })
	r.MustRegister(nfa.NFIDS, func() (NF, error) { return NewIDS(DefaultSignatureCount, true) })
	r.MustRegister(nfa.NFNIDS, func() (NF, error) { return NewIDS(DefaultSignatureCount, false) })
	r.MustRegister(nfa.NFVPN, func() (NF, error) { return NewVPN(nil) })
	r.MustRegister(nfa.NFMonitor, func() (NF, error) { return NewMonitor(), nil })
	r.MustRegister(nfa.NFNAT, func() (NF, error) { return NewNAT() })
	r.MustRegister(nfa.NFSynthetic, func() (NF, error) { return NewSynthetic(300), nil })
	r.MustRegister(nfa.NFGateway, func() (NF, error) { return NewGateway(), nil })
	r.MustRegister(nfa.NFCaching, func() (NF, error) { return NewCache(1024), nil })
	r.MustRegister(nfa.NFProxy, func() (NF, error) { return NewProxy(4) })
	r.MustRegister(nfa.NFCompress, func() (NF, error) { return NewCompressor(0) })
	r.MustRegister(nfa.NFShaper, func() (NF, error) { return NewShaper(0, 0), nil })
	return r
}

// Register adds a factory for name, replacing any previous one.
func (r *Registry) Register(name string, f Factory) error {
	if name == "" || f == nil {
		return fmt.Errorf("nf: invalid registration for %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.factories[name] = f
	return nil
}

// MustRegister is Register that panics on error (init-time use).
func (r *Registry) MustRegister(name string, f Factory) {
	if err := r.Register(name, f); err != nil {
		panic(err)
	}
}

// New instantiates the NF type registered under name.
func (r *Registry) New(name string) (NF, error) {
	r.mu.RLock()
	f, ok := r.factories[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("nf: unknown NF type %q", name)
	}
	return f()
}

// Names returns the registered NF type names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.factories))
	for n := range r.factories {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
