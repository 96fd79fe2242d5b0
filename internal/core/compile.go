// Package core implements the NFP orchestrator (§4): it takes an NFP
// policy, identifies NF dependencies with the action model, and
// compiles the policy into a high performance service graph with
// parallel NFs and minimal packet-copy overhead.
//
// The compilation follows §4.4's three steps — transform policies into
// intermediate representations, compile them into micrographs, merge
// micrographs into the final graph — realized as:
//
//  1. Rules become position pins, hard sequential edges
//     (not-parallelizable Order rules) and soft parallel pairs
//     (parallelizable Order rules and Priority rules, each with a
//     winner and the conflicting actions from Algorithm 1).
//  2. Rule-connected NFs form components (the paper's micrographs).
//     Inside a component, NFs are scheduled into levels by longest
//     path over hard edges; NFs sharing a level run in parallel.
//     Same-level pairs with no rule are dependency-checked exactly
//     like the paper's tree-leaf and plain-parallelism checks, adding
//     hard edges (with a warning) when they cannot be parallelized.
//  3. Components are pairwise dependency-checked and placed in
//     parallel when every cross pair can share a packet copy;
//     dependent components are sequentialized with a warning ("network
//     operators will be informed"), Position-pinned NFs wrap the
//     result.
//
// Every parallel stage Algorithm 1 allows is then judged by its cost
// (cost.go): it stays parallel only when a Priority rule asks for it,
// an NF's cost is unknown, or its lighter branches outweigh the copy,
// hand-off and merge that buy it; otherwise its NFs run as a chain.
//
// Copy groups are assigned per parallel level by a share-compatibility
// predicate (Dirty Memory Reusing, §4.2 OP#1); copies default to
// Header-Only (§4.2 OP#2) unless a branch NF touches the payload; and
// merging operations (§5.3) are derived from the write sets of NFs in
// copied groups, with the latest-ranked writer of each field winning,
// which reproduces sequential semantics.
package core

import (
	"fmt"
	"sort"

	"nfp/internal/graph"
	"nfp/internal/nfa"
	"nfp/internal/policy"
)

// ProfileLookup resolves an NF name from a policy to its action
// profile. nfa.LookupProfile is the default; nfa.LookupCostFree leaves
// every cost unknown, so the compile keeps Algorithm 1's graph.
type ProfileLookup func(name string) (nfa.Profile, bool)

// Options tune compilation.
type Options struct {
	// Analysis options (Dirty Memory Reusing switch) are forwarded to
	// Algorithm 1 and the share-compatibility predicate.
	Analysis nfa.Options
	// NoParallelism disables all parallelization: the compiler emits a
	// plain sequential chain honoring every order constraint. Used for
	// baseline measurements and the paper's sequential-compatibility
	// experiments (Fig 7).
	NoParallelism bool
}

// Result is the outcome of a compilation.
type Result struct {
	// Graph is the compiled service graph.
	Graph graph.Node
	// Warnings lists the compiler's messages to the operator:
	// auto-sequentialized NF pairs, implicit priorities, ignored rules.
	Warnings []string
	// Stages lists the cost rule's verdict on every stage Algorithm 1
	// let run in parallel, in compile order.
	Stages []Stage
}

// Compile builds a service graph from pol. Every NF referenced by the
// policy must resolve through lookup.
func Compile(pol policy.Policy, lookup ProfileLookup, opts Options) (*Result, error) {
	if lookup == nil {
		lookup = nfa.LookupProfile
	}
	if conflicts := pol.Validate(); len(conflicts) > 0 {
		return nil, fmt.Errorf("core: policy conflicts: %v", conflicts)
	}
	names := pol.NFs()
	if len(names) == 0 {
		return nil, fmt.Errorf("core: empty policy")
	}
	c := &compiler{
		opts:     opts,
		profiles: map[string]nfa.Profile{},
		index:    map[string]int{},
	}
	for i, n := range names {
		p, ok := lookup(n)
		if !ok {
			return nil, fmt.Errorf("core: no action profile for NF %q; register it first (§5.4)", n)
		}
		c.profiles[n] = p
		c.index[n] = i
	}
	return c.compile(pol)
}

// compiler carries compilation state.
type compiler struct {
	opts     Options
	profiles map[string]nfa.Profile
	index    map[string]int // mention order of NF names
	warnings []string
	stages   []Stage

	hard     map[string]map[string]bool // hard sequential edges
	soft     map[string]map[string]bool // rank edges loser->winner
	pairs    map[[2]string]bool         // rule-connected pairs (either direction)
	order    map[string]map[string]bool // Order-rule digraph (for transitivity)
	priority map[[2]string]policy.Rule  // Priority rules by NF pair (either direction)
}

func (c *compiler) warnf(format string, args ...any) {
	c.warnings = append(c.warnings, fmt.Sprintf(format, args...))
}

func (c *compiler) addHard(a, b string) {
	if c.hard[a] == nil {
		c.hard[a] = map[string]bool{}
	}
	c.hard[a][b] = true
}

func (c *compiler) addSoft(a, b string) {
	if c.soft[a] == nil {
		c.soft[a] = map[string]bool{}
	}
	c.soft[a][b] = true
}

func (c *compiler) connect(a, b string) {
	c.pairs[[2]string{a, b}] = true
	c.pairs[[2]string{b, a}] = true
}

func (c *compiler) compile(pol policy.Policy) (*Result, error) {
	c.hard = map[string]map[string]bool{}
	c.soft = map[string]map[string]bool{}
	c.pairs = map[[2]string]bool{}
	c.order = map[string]map[string]bool{}
	c.priority = map[[2]string]policy.Rule{}

	// --- Step 1: transform rules into intermediate representations ---
	var first, last []string
	positioned := map[string]bool{}
	for _, r := range pol.Rules {
		if r.Kind != policy.KindPosition {
			continue
		}
		if positioned[r.NF1] {
			continue // duplicate pin; Validate rejected contradictions
		}
		positioned[r.NF1] = true
		if r.Pos == policy.First {
			first = append(first, r.NF1)
		} else {
			last = append(last, r.NF1)
		}
	}

	middle := map[string]bool{}
	for _, n := range pol.NFs() {
		if !positioned[n] {
			middle[n] = true
		}
	}

	for _, r := range pol.Rules {
		switch r.Kind {
		case policy.KindOrder:
			if positioned[r.NF1] || positioned[r.NF2] {
				// Position placement subsumes the order; check that it
				// does not contradict it.
				c.checkPositionOrder(r, first, last)
				continue
			}
			if c.order[r.NF1] == nil {
				c.order[r.NF1] = map[string]bool{}
			}
			c.order[r.NF1][r.NF2] = true
		case policy.KindPriority:
			if positioned[r.NF1] || positioned[r.NF2] {
				c.warnf("Priority(%s > %s) ignored: a participant is position-pinned", r.NF1, r.NF2)
				continue
			}
			c.connect(r.NF1, r.NF2)
			c.priority[[2]string{r.NF1, r.NF2}] = r
			c.priority[[2]string{r.NF2, r.NF1}] = r
			if c.opts.NoParallelism {
				c.addHard(r.NF2, r.NF1) // low before high preserves winner
				continue
			}
			// Forced parallel; rank low-priority NF before the winner.
			c.addSoft(r.NF2, r.NF1)
		}
	}

	// Expand Order rules to their transitive closure before analysis:
	// Order(A,B) and Order(B,C) imply the operator's intent A-before-C,
	// and A and C may be dependent even when each adjacent pair is
	// parallelizable (e.g. A writes a field C reads through a
	// parallelizable middleman). Every ordered-reachable pair goes
	// through Algorithm 1: not-parallelizable pairs become hard edges,
	// parallelizable ones soft (rank) edges with the later NF winning.
	c.analyzeOrderedPairs()

	// --- Steps 2+3: schedule middle NFs into a graph ---
	var midNode graph.Node
	if len(middle) > 0 {
		var err error
		midNode, err = c.scheduleMiddle(middle)
		if err != nil {
			return nil, err
		}
	}

	// --- Assemble with position pins ---
	var items []graph.Node
	for _, n := range first {
		items = append(items, graph.NF{Name: n})
	}
	if midNode != nil {
		items = appendFlat(items, midNode)
	}
	for _, n := range last {
		items = append(items, graph.NF{Name: n})
	}

	var g graph.Node
	if len(items) == 1 {
		g = items[0]
	} else {
		g = graph.Seq{Items: items}
	}
	if err := graph.Validate(g); err != nil {
		return nil, fmt.Errorf("core: compiled graph invalid: %w", err)
	}
	return &Result{Graph: g, Warnings: c.warnings, Stages: c.stages}, nil
}

// analyzeOrderedPairs runs Algorithm 1 on every transitively ordered
// NF pair and installs the resulting hard or soft edges.
func (c *compiler) analyzeOrderedPairs() {
	// Reachability by DFS from each node (rule graphs are small).
	reach := map[string]map[string]bool{}
	var visit func(root, cur string)
	visit = func(root, cur string) {
		for next := range c.order[cur] {
			if reach[root][next] {
				continue
			}
			reach[root][next] = true
			visit(root, next)
		}
	}
	roots := make([]string, 0, len(c.order))
	for a := range c.order {
		roots = append(roots, a)
	}
	sort.Strings(roots)
	for _, a := range roots {
		reach[a] = map[string]bool{}
		visit(a, a)
	}
	for _, a := range roots {
		targets := make([]string, 0, len(reach[a]))
		for b := range reach[a] {
			targets = append(targets, b)
		}
		sort.Strings(targets)
		for _, b := range targets {
			c.connect(a, b)
			res := nfa.Analyze(c.profiles[a], c.profiles[b], c.opts.Analysis)
			if res.Parallelizable && !c.opts.NoParallelism {
				// The Order intent is converted into an implicit
				// priority with the back NF winning (§3).
				c.addSoft(a, b)
			} else {
				c.addHard(a, b)
			}
		}
	}
}

// checkPositionOrder warns when an Order rule contradicts a Position
// pin (e.g. Order(X, before, head-NF)).
func (c *compiler) checkPositionOrder(r policy.Rule, first, last []string) {
	for _, f := range first {
		if r.NF2 == f {
			c.warnf("%s contradicts Position(%s, first); position wins", r, f)
		}
	}
	for _, l := range last {
		if r.NF1 == l {
			c.warnf("%s contradicts Position(%s, last); position wins", r, l)
		}
	}
}

// sortedByMention sorts NF names by policy mention order.
func (c *compiler) sortedByMention(names []string) {
	sort.Slice(names, func(i, j int) bool { return c.index[names[i]] < c.index[names[j]] })
}
