package nf

import (
	"fmt"
	"sync"

	"nfp/internal/ahocorasick"
	"nfp/internal/nfa"
	"nfp/internal/packet"
)

// DefaultSignatureCount is the evaluation IDS's rule count ("100
// signature inspection rules", §6.1).
const DefaultSignatureCount = 100

// Alert records one signature hit.
type Alert struct {
	Signature int
	PID       uint64
}

// alertLogCap is how many of the most recent alerts an IDS keeps, so an
// attack flood cannot grow its log without bound.
const alertLogCap = 1024

// alertLog is a ring of the most recent alerts and a count of them all.
type alertLog[T any] struct {
	buf  []T // grows to alertLogCap, then wraps
	next int // the oldest alert once buf is full
	hits uint64
}

func (l *alertLog[T]) add(a T) {
	l.hits++
	if len(l.buf) < alertLogCap {
		l.buf = append(l.buf, a)
		return
	}
	l.buf[l.next] = a
	l.next = (l.next + 1) % alertLogCap
}

// list returns a copy of the retained alerts, oldest first.
func (l *alertLog[T]) list() []T {
	out := make([]T, 0, len(l.buf))
	out = append(out, l.buf[l.next:]...)
	return append(out, l.buf[:l.next]...)
}

// IDS performs multi-pattern signature matching over packet payloads
// with an Aho-Corasick automaton, modeling Snort's core matcher
// (§6.1). In inline mode (intrusion *prevention*) matching packets are
// dropped; in passive mode they only raise alerts — the distinction
// between the catalog's IDS and NIDS profiles.
type IDS struct {
	matcher *ahocorasick.Matcher
	inline  bool
	alerts  alertLog[Alert]
	scanned uint64
}

// automata holds the signature automaton of each signature count,
// built on first use and never written again, so every IDS, shard,
// restart and reload reads the same matcher.
var automata sync.Map // int -> *ahocorasick.Matcher

// NewIDS builds an IDS with n synthetic signatures. Signatures are
// "SIG-%04d-ATTACK" strings; generator traffic never contains them, so
// benchmarks measure pure scan cost, while tests inject hits
// deliberately. All instances with the same n, inline or not, share one
// automaton (automata); the alert log and counters are per instance.
func NewIDS(n int, inline bool) (*IDS, error) {
	if n < 0 {
		return nil, fmt.Errorf("ids: negative signature count %d", n)
	}
	m, ok := automata.Load(n)
	if !ok {
		sigs := make([][]byte, n)
		for i := range sigs {
			sigs[i] = []byte(fmt.Sprintf("SIG-%04d-ATTACK", i))
		}
		m, _ = automata.LoadOrStore(n, ahocorasick.New(sigs))
	}
	return &IDS{matcher: m.(*ahocorasick.Matcher), inline: inline}, nil
}

// NewIDSFromSignatures builds an IDS over explicit signatures, with an
// automaton of its own.
func NewIDSFromSignatures(sigs [][]byte, inline bool) *IDS {
	return &IDS{matcher: ahocorasick.New(sigs), inline: inline}
}

// Name implements NF.
func (d *IDS) Name() string {
	if d.inline {
		return nfa.NFIDS
	}
	return nfa.NFNIDS
}

// Process scans the L4 payload for the signatures, stopping at the
// first hit.
func (d *IDS) Process(p *packet.Packet) Verdict {
	d.scanned++
	if err := p.Parse(); err != nil {
		return Pass
	}
	sig := d.matcher.First(p.Payload())
	if sig < 0 {
		return Pass
	}
	d.alerts.add(Alert{Signature: sig, PID: p.Meta.PID})
	if d.inline {
		return Drop
	}
	return Pass
}

// Alerts returns the most recent alerts (up to alertLogCap), oldest
// first.
func (d *IDS) Alerts() []Alert { return d.alerts.list() }

// Hits returns the number of alerts raised, retained or not.
func (d *IDS) Hits() uint64 { return d.alerts.hits }

// Scanned returns the number of packets inspected.
func (d *IDS) Scanned() uint64 { return d.scanned }
