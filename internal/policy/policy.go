// Package policy implements NFP's policy specification scheme (§3):
// Order, Priority and Position rules that network operators compose
// into a policy describing sequential or parallel chaining intents.
//
// A traditional sequential service chain ("Assign(VPN, 1); Assign(
// Monitor, 2); ...") is expressible as a series of Order rules
// (Table 1), which FromChain generates, preserving backwards
// compatibility: the orchestrator then explores parallelism within
// those Order rules.
package policy

import (
	"fmt"
	"sort"
	"strings"
)

// Kind discriminates the three rule types of §3.
type Kind uint8

const (
	// KindOrder expresses the desired execution order of two NFs:
	// Order(NF1, before, NF2).
	KindOrder Kind = iota
	// KindPriority parallelizes two NFs and resolves action conflicts
	// in favour of the first: Priority(NF1 > NF2).
	KindPriority
	// KindPosition pins an NF to the head or tail of the service
	// graph: Position(NF, first|last).
	KindPosition
)

func (k Kind) String() string {
	switch k {
	case KindOrder:
		return "Order"
	case KindPriority:
		return "Priority"
	case KindPosition:
		return "Position"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Place is the position operand of a Position rule.
type Place uint8

const (
	// First pins the NF to the head of the service graph.
	First Place = iota
	// Last pins the NF to the tail.
	Last
)

func (p Place) String() string {
	if p == First {
		return "first"
	}
	return "last"
}

// Rule is a single policy rule. Interpretation by kind:
//
//	KindOrder:    NF1 executes before NF2.
//	KindPriority: NF1 and NF2 run in parallel; NF1's result wins
//	              conflicts (NF1 has the higher priority).
//	KindPosition: NF1 is pinned at Pos; NF2 is unused.
type Rule struct {
	Kind     Kind
	NF1, NF2 string
	Pos      Place
}

// Order constructs Order(nf1, before, nf2).
func Order(nf1, nf2 string) Rule { return Rule{Kind: KindOrder, NF1: nf1, NF2: nf2} }

// Priority constructs Priority(high > low).
func Priority(high, low string) Rule { return Rule{Kind: KindPriority, NF1: high, NF2: low} }

// Position constructs Position(nf, place).
func Position(nf string, place Place) Rule {
	return Rule{Kind: KindPosition, NF1: nf, Pos: place}
}

func (r Rule) String() string {
	switch r.Kind {
	case KindOrder:
		return fmt.Sprintf("Order(%s, before, %s)", r.NF1, r.NF2)
	case KindPriority:
		return fmt.Sprintf("Priority(%s > %s)", r.NF1, r.NF2)
	case KindPosition:
		return fmt.Sprintf("Position(%s, %s)", r.NF1, r.Pos)
	}
	return "Rule(?)"
}

// Policy is an ordered collection of rules describing one service
// graph's chaining intents.
type Policy struct {
	Rules []Rule
}

// FromChain converts a traditional sequential chain description into
// the equivalent NFP policy of consecutive Order rules (Table 1, row 2:
// "we are able to automatically transfer it to NFP policies").
func FromChain(nfs ...string) Policy {
	var p Policy
	for i := 0; i+1 < len(nfs); i++ {
		p.Rules = append(p.Rules, Order(nfs[i], nfs[i+1]))
	}
	if len(nfs) == 1 {
		// A single-NF chain still needs the NF mentioned somewhere.
		p.Rules = append(p.Rules, Position(nfs[0], First))
	}
	return p
}

// NFs returns the distinct NF names referenced by the policy, in first
// mention order.
func (p Policy) NFs() []string {
	seen := map[string]bool{}
	var out []string
	add := func(n string) {
		if n != "" && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	for _, r := range p.Rules {
		add(r.NF1)
		add(r.NF2)
	}
	return out
}

func (p Policy) String() string {
	lines := make([]string, len(p.Rules))
	for i, r := range p.Rules {
		lines[i] = r.String()
	}
	return strings.Join(lines, "\n")
}

// Conflict describes a pair (or set) of rules that cannot both hold.
// NFP detects conflicts and reports them to the operator (resolution is
// future work, as in the paper §3).
type Conflict struct {
	Reason string
	Rules  []Rule
}

func (c Conflict) String() string {
	parts := make([]string, len(c.Rules))
	for i, r := range c.Rules {
		parts[i] = r.String()
	}
	return fmt.Sprintf("%s: %s", c.Reason, strings.Join(parts, " vs "))
}

// Validate checks the policy for structural errors and conflicts:
//
//   - self-referential Order/Priority rules (Order(A, before, A)),
//   - contradictory Order cycles (Order(A,B) … Order(B,A), incl. longer
//     cycles),
//   - an NF positioned both first and last,
//   - multiple distinct NFs pinned to the same endpoint with an Order
//     rule contradiction,
//   - empty NF names.
func (p Policy) Validate() []Conflict {
	var conflicts []Conflict

	for _, r := range p.Rules {
		if r.NF1 == "" || (r.Kind != KindPosition && r.NF2 == "") {
			conflicts = append(conflicts, Conflict{"empty NF name", []Rule{r}})
		}
		if r.Kind != KindPosition && r.NF1 == r.NF2 && r.NF1 != "" {
			conflicts = append(conflicts, Conflict{"rule references the same NF twice", []Rule{r}})
		}
	}

	// Order cycles: build the order digraph and find strongly
	// connected components with more than one node (or self loops).
	adj := map[string][]string{}
	ruleFor := map[[2]string]Rule{}
	for _, r := range p.Rules {
		if r.Kind == KindOrder && r.NF1 != "" && r.NF2 != "" && r.NF1 != r.NF2 {
			adj[r.NF1] = append(adj[r.NF1], r.NF2)
			ruleFor[[2]string{r.NF1, r.NF2}] = r
		}
	}
	if cycle := findCycle(adj); cycle != nil {
		var rs []Rule
		for i := 0; i < len(cycle); i++ {
			a, b := cycle[i], cycle[(i+1)%len(cycle)]
			if r, ok := ruleFor[[2]string{a, b}]; ok {
				rs = append(rs, r)
			}
		}
		conflicts = append(conflicts, Conflict{
			Reason: fmt.Sprintf("conflicting order cycle %s", strings.Join(cycle, "→")),
			Rules:  rs,
		})
	}

	// Position conflicts.
	pos := map[string]map[Place][]Rule{}
	for _, r := range p.Rules {
		if r.Kind != KindPosition {
			continue
		}
		if pos[r.NF1] == nil {
			pos[r.NF1] = map[Place][]Rule{}
		}
		pos[r.NF1][r.Pos] = append(pos[r.NF1][r.Pos], r)
	}
	names := make([]string, 0, len(pos))
	for n := range pos {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if len(pos[n][First]) > 0 && len(pos[n][Last]) > 0 {
			conflicts = append(conflicts, Conflict{
				Reason: fmt.Sprintf("%s positioned both first and last", n),
				Rules:  append(append([]Rule{}, pos[n][First]...), pos[n][Last]...),
			})
		}
	}
	return conflicts
}

// findCycle returns the node sequence of one cycle in the digraph, or
// nil. Deterministic: neighbours are visited in sorted order.
func findCycle(adj map[string][]string) []string {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	parent := map[string]string{}
	nodes := make([]string, 0, len(adj))
	for n := range adj {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	var cycle []string
	var dfs func(u string) bool
	dfs = func(u string) bool {
		color[u] = gray
		next := append([]string(nil), adj[u]...)
		sort.Strings(next)
		for _, v := range next {
			switch color[v] {
			case white:
				parent[v] = u
				if dfs(v) {
					return true
				}
			case gray:
				// Found a back edge u -> v; reconstruct v ... u.
				cycle = []string{v}
				for w := u; w != v; w = parent[w] {
					cycle = append(cycle, w)
				}
				// Reverse into forward order v → ... → u.
				for i, j := 1, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				return true
			}
		}
		color[u] = black
		return false
	}
	for _, n := range nodes {
		if color[n] == white && dfs(n) {
			return cycle
		}
	}
	return nil
}
