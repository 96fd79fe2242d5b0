package core

import (
	"fmt"
	"math/rand"
	"testing"

	"nfp/internal/graph"
	"nfp/internal/nfa"
	"nfp/internal/packet"
	"nfp/internal/policy"
)

// intervals assigns each NF a logical execution window [start, end):
// sequential items occupy consecutive windows, parallel branches share
// their start. Windows let us check ordering constraints structurally.
func intervals(g graph.Node) map[graph.NF][2]int {
	out := map[graph.NF][2]int{}
	var assign func(n graph.Node, start int) int
	assign = func(n graph.Node, start int) int {
		switch v := n.(type) {
		case graph.NF:
			out[v] = [2]int{start, start + 1}
			return start + 1
		case graph.Seq:
			cur := start
			for _, it := range v.Items {
				cur = assign(it, cur)
			}
			return cur
		case graph.Par:
			end := start
			for _, b := range v.Branches {
				if e := assign(b, start); e > end {
					end = e
				}
			}
			return end
		}
		panic("unknown node")
	}
	assign(g, 0)
	return out
}

// randProfile draws a random profile over the header fields (payload
// excluded to keep the space denser in conflicts).
func randProfile(rng *rand.Rand) nfa.Profile {
	fields := []packet.Field{
		packet.FieldSrcIP, packet.FieldDstIP,
		packet.FieldSrcPort, packet.FieldDstPort, packet.FieldTTL,
		packet.FieldPayload,
	}
	var p nfa.Profile
	for _, f := range fields {
		if rng.Float64() < 0.35 {
			p.Actions = append(p.Actions, nfa.Read(f))
		}
		if rng.Float64() < 0.20 {
			p.Actions = append(p.Actions, nfa.Write(f))
		}
	}
	if rng.Float64() < 0.25 {
		p.Actions = append(p.Actions, nfa.Drop())
	}
	if rng.Float64() < 0.10 {
		p.Actions = append(p.Actions, nfa.AddRm(packet.FieldAH))
	}
	if len(p.Actions) == 0 {
		p.Actions = append(p.Actions, nfa.Read(packet.FieldTTL))
	}
	return p
}

// TestCompileRespectsTransitiveConstraints: for random chains, every
// transitively-ordered pair that Algorithm 1 declares unparallelizable
// must execute in strictly ordered windows, and no ordered pair may
// ever execute in REVERSED windows.
func TestCompileRespectsTransitiveConstraints(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(5)
		profiles := map[string]nfa.Profile{}
		var chain []string
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("p%d", i)
			chain = append(chain, name)
			profiles[name] = randProfile(rng)
		}
		lookup := func(name string) (nfa.Profile, bool) {
			p, ok := profiles[name]
			return p, ok
		}
		res, err := Compile(policy.FromChain(chain...), lookup, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := graph.Validate(res.Graph); err != nil {
			t.Fatalf("trial %d: invalid graph: %v", trial, err)
		}
		iv := intervals(res.Graph)
		if len(iv) != n {
			t.Fatalf("trial %d: %d NFs in graph, want %d", trial, len(iv), n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				a := graph.NF{Name: chain[i]}
				b := graph.NF{Name: chain[j]}
				pair := nfa.Analyze(profiles[chain[i]], profiles[chain[j]], nfa.Options{})
				switch {
				case !pair.Parallelizable:
					if !(iv[a][1] <= iv[b][0]) {
						t.Errorf("trial %d: %s must finish before %s starts (not parallelizable)\nprofiles %v %v\ngraph %v",
							trial, a, b, profiles[chain[i]], profiles[chain[j]], res.Graph)
					}
				default:
					// Parallelizable: the successor may share a window
					// or come later, but must never complete before
					// the predecessor starts.
					if iv[b][1] <= iv[a][0] {
						t.Errorf("trial %d: %s scheduled wholly before %s despite chain order\ngraph %v",
							trial, b, a, res.Graph)
					}
				}
			}
		}
	}
}

// TestCompileCopyCountsBounded: the compiler never creates more copies
// than degree-1 per parallel stage, and parallelizable-without-copy
// chains compile to zero copies.
func TestCompileCopyCountsBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(4)
		profiles := map[string]nfa.Profile{}
		var chain []string
		allReadOnly := true
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("q%d", i)
			chain = append(chain, name)
			p := randProfile(rng)
			profiles[name] = p
			if len(p.WriteSet()) > 0 || p.AddsOrRemoves() || p.Drops() {
				allReadOnly = false
			}
		}
		lookup := func(name string) (nfa.Profile, bool) {
			p, ok := profiles[name]
			return p, ok
		}
		res, err := Compile(policy.FromChain(chain...), lookup, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		copies := graph.TotalCopies(res.Graph)
		if copies > n-1 {
			t.Errorf("trial %d: %d copies for %d NFs", trial, copies, n)
		}
		if allReadOnly {
			if copies != 0 {
				t.Errorf("trial %d: read-only chain made %d copies", trial, copies)
			}
			if graph.EquivalentLength(res.Graph) != 1 {
				t.Errorf("trial %d: read-only chain not fully parallel: %v", trial, res.Graph)
			}
		}
	}
}
