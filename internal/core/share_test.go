package core

import (
	"fmt"
	"testing"

	"nfp/internal/graph"
	"nfp/internal/nfa"
	"nfp/internal/policy"
)

// lookups are the two profile sources a compile runs under: the
// cost-free catalog that pins Algorithm 1's graphs, and the default
// costs nfpd compiles with.
var lookups = []struct {
	name string
	fn   ProfileLookup
}{
	{"cost-free", nfa.LookupCostFree},
	{"default", nfa.LookupProfile},
}

// forbiddenShares lists every pair of NFs a compiled graph runs side by
// side on one packet copy although shareCompatible forbids it: for
// each copy group of each Par, every NF of one member branch against
// every NF of another.
func forbiddenShares(n graph.Node, lookup ProfileLookup) []string {
	var out []string
	var walk func(graph.Node)
	walk = func(n graph.Node) {
		switch n := n.(type) {
		case graph.Seq:
			for _, it := range n.Items {
				walk(it)
			}
		case graph.Par:
			for _, b := range n.Branches {
				walk(b)
			}
			for _, g := range n.NormGroups() {
				for i := range g {
					for _, j := range g[i+1:] {
						for _, x := range graph.NFs(n.Branches[g[i]]) {
							for _, y := range graph.NFs(n.Branches[j]) {
								px, _ := lookup(x.Name)
								py, _ := lookup(y.Name)
								if !shareCompatible(px, py, nfa.Options{}) {
									out = append(out, x.Name+"/"+y.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	walk(n)
	return out
}

// TestCompileShareSafetySweep compiles every policy of two Order rules
// over four distinct catalog NFs under both lookups: no copy group may
// hold a pair shareCompatible forbids. Before micrograph merging
// checked shareCompatible, 32 policies did so cost-free and 8 under the
// default costs, e.g. Order(compression, before, shaper); Order(lb,
// before, synthetic) became [(compression -> shaper) || (lb ->
// synthetic)], the compressor removing bytes under the others' reads.
func TestCompileShareSafetySweep(t *testing.T) {
	names := nfa.Names()
	for _, lk := range lookups {
		policies, bad := 0, 0
		for _, a := range names {
			for _, b := range names {
				for _, c := range names {
					for _, d := range names {
						if a == b || a == c || a == d || b == c || b == d || c == d {
							continue
						}
						pol := policy.Policy{Rules: []policy.Rule{policy.Order(a, b), policy.Order(c, d)}}
						res, err := Compile(pol, lk.fn, Options{})
						if err != nil {
							t.Fatalf("%s: %v: %v", lk.name, pol.Rules, err)
						}
						policies++
						if f := forbiddenShares(res.Graph, lk.fn); len(f) > 0 {
							if bad++; bad <= 5 {
								t.Errorf("%s: %v -> %s shares %v", lk.name, pol.Rules, res.Graph, f)
							}
						}
					}
				}
			}
		}
		if bad > 0 {
			t.Errorf("%s: %d of %d policies share a copy shareCompatible forbids", lk.name, bad, policies)
		}
	}
}

// FuzzCompileShareSafety draws random Order, Priority and Position
// policies over the catalog, three bytes a rule (kind, then two NF
// indices), and compiles each under both lookups: a policy may be
// rejected, but no compiled copy group may hold a pair shareCompatible
// forbids.
func FuzzCompileShareSafety(f *testing.F) {
	names := nfa.Names()
	idx := func(s string) byte {
		for i, n := range names {
			if n == s {
				return byte(i)
			}
		}
		f.Fatalf("%s is not in the catalog", s)
		return 0
	}
	f.Add([]byte{0, idx(nfa.NFCompress), idx(nfa.NFShaper), 0, idx(nfa.NFLB), idx(nfa.NFSynthetic)})
	f.Add([]byte{0, idx(nfa.NFCompress), idx(nfa.NFShaper), 0, idx(nfa.NFLB), idx(nfa.NFMonitor)})
	f.Add([]byte{1, idx(nfa.NFIDS), idx(nfa.NFFirewall), 2, idx(nfa.NFVPN), 0, 0, idx(nfa.NFMonitor), idx(nfa.NFLB)})
	f.Fuzz(func(t *testing.T, data []byte) {
		var pol policy.Policy
		for ; len(data) >= 3 && len(pol.Rules) < 8; data = data[3:] {
			a, b := names[int(data[1])%len(names)], names[int(data[2])%len(names)]
			switch data[0] % 4 {
			case 0:
				pol.Rules = append(pol.Rules, policy.Order(a, b))
			case 1:
				pol.Rules = append(pol.Rules, policy.Priority(a, b))
			case 2:
				pol.Rules = append(pol.Rules, policy.Position(a, policy.First))
			case 3:
				pol.Rules = append(pol.Rules, policy.Position(a, policy.Last))
			}
		}
		for _, lk := range lookups {
			res, err := Compile(pol, lk.fn, Options{})
			if err != nil {
				continue
			}
			if f := forbiddenShares(res.Graph, lk.fn); len(f) > 0 {
				t.Fatalf("%s: %s -> %s shares %v", lk.name, fmt.Sprint(pol.Rules), res.Graph, f)
			}
		}
	})
}
