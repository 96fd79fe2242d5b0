package core

import (
	"fmt"
	"sort"

	"nfp/internal/graph"
	"nfp/internal/nfa"
	"nfp/internal/packet"
)

// scheduleMiddle builds the graph for the NFs not pinned by Position
// rules: micrograph (component) construction, per-component level
// scheduling, and the cross-component merge of §4.4.3.
func (c *compiler) scheduleMiddle(middle map[string]bool) (graph.Node, error) {
	comps := c.components(middle)

	// Compile each component (micrograph) independently.
	nodes := make([]graph.Node, len(comps))
	for i, comp := range comps {
		n, err := c.scheduleComponent(comp)
		if err != nil {
			return nil, err
		}
		nodes[i] = n
	}
	if len(nodes) == 1 {
		return nodes[0], nil
	}

	// §4.4.3: wrap each micrograph as one NF and exhaustively check
	// pairwise dependencies to decide their parallelism. Components
	// whose NFs cannot all share one packet copy are sequentialized
	// (the operator is informed via a warning).
	if c.opts.NoParallelism {
		seq := make([]graph.Node, 0, len(nodes))
		for _, n := range nodes {
			seq = append(seq, n)
		}
		return graph.Seq{Items: seq}, nil
	}

	compHard := map[int]map[int]bool{}
	addCompHard := func(a, b int) {
		if compHard[a] == nil {
			compHard[a] = map[int]bool{}
		}
		compHard[a][b] = true
	}
	for i := 0; i < len(comps); i++ {
		for j := i + 1; j < len(comps); j++ {
			if !c.componentsCompatible(comps[i], comps[j]) {
				c.warnf("micrographs %v and %v share packet dependencies; executing %v first — regulate with explicit rules if undesired",
					comps[i], comps[j], comps[i])
				addCompHard(i, j)
			}
		}
	}

	// Layer the components by hard edges (always i → j with i < j, so
	// acyclic); each layer is a Par of the member component graphs, all
	// sharing the original packet copy.
	levels := c.levelizeMixed(len(comps), compHard, nil, nil)
	maxLevel := 0
	for _, l := range levels {
		if l > maxLevel {
			maxLevel = l
		}
	}
	var items []graph.Node
	for l := 0; l <= maxLevel; l++ {
		var branches []graph.Node
		for i, cl := range levels {
			if cl == l {
				branches = append(branches, nodes[i])
			}
		}
		switch {
		case len(branches) == 0:
			continue
		case len(branches) == 1:
			items = append(items, branches[0])
		case c.keepParallel(branches):
			items = append(items, graph.Par{Branches: branches})
		default:
			// Not worth a stage: mention order, as execution order
			// between compatible micrographs is irrelevant.
			for _, b := range branches {
				items = appendFlat(items, b)
			}
		}
	}
	if len(items) == 1 {
		return items[0], nil
	}
	return graph.Seq{Items: items}, nil
}

// components groups the middle NFs into rule-connected components —
// the paper's micrographs ("we concatenate intermediate representations
// with overlapping NFs into a micrograph by using overlapping NFs as
// junction points"). Free NFs become singleton components.
func (c *compiler) components(middle map[string]bool) [][]string {
	parent := map[string]string{}
	var find func(string) string
	find = func(x string) string {
		if parent[x] == x {
			return x
		}
		parent[x] = find(parent[x])
		return parent[x]
	}
	for n := range middle {
		parent[n] = n
	}
	union := func(a, b string) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for pair := range c.pairs {
		if middle[pair[0]] && middle[pair[1]] {
			union(pair[0], pair[1])
		}
	}
	groups := map[string][]string{}
	for n := range middle {
		r := find(n)
		groups[r] = append(groups[r], n)
	}
	var comps [][]string
	for _, g := range groups {
		c.sortedByMention(g)
		comps = append(comps, g)
	}
	sort.Slice(comps, func(i, j int) bool {
		return c.index[comps[i][0]] < c.index[comps[j][0]]
	})
	return comps
}

// componentsCompatible reports whether two micrographs can run in
// parallel sharing one packet copy. No rule orders the micrographs, so
// parallel placement is only safe when execution order is provably
// irrelevant: every cross pair must be parallelizable without copies
// in BOTH directions (a dropper on one side, for example, fails the
// (Drop, ·) row one way and forces sequential placement, preserving
// per-NF state equivalence with some sequential order). Every cross
// pair must also be able to work on one copy at once (shareCompatible,
// the test buildPar groups by): Algorithm 1 clears a reader beside a
// header remover, which then shifts the bytes under it.
func (c *compiler) componentsCompatible(c1, c2 []string) bool {
	for _, x := range c1 {
		for _, y := range c2 {
			px, py := c.profiles[x], c.profiles[y]
			if !c.orderIrrelevant(px, py) || !shareCompatible(px, py, c.opts.Analysis) {
				return false
			}
		}
	}
	return true
}

// orderIrrelevant reports whether two NFs can run in parallel on one
// copy regardless of which sequential order the operator would have
// meant: Algorithm 1 must return parallelizable-without-copy for both
// orderings.
func (c *compiler) orderIrrelevant(p1, p2 nfa.Profile) bool {
	a := nfa.Analyze(p1, p2, c.opts.Analysis)
	if !a.Parallelizable || a.NeedCopy() {
		return false
	}
	b := nfa.Analyze(p2, p1, c.opts.Analysis)
	return b.Parallelizable && !b.NeedCopy()
}

// scheduleComponent schedules one micrograph: longest-path levels over
// hard edges, with same-level rule-less pairs resolved by dependency
// analysis (adding implicit priorities or hard edges), then per-level
// copy-group assignment and merge-op generation.
func (c *compiler) scheduleComponent(comp []string) (graph.Node, error) {
	if len(comp) == 1 {
		return graph.NF{Name: comp[0]}, nil
	}
	idx := map[string]int{}
	for i, n := range comp {
		idx[n] = i
	}

	// Iterate level assignment until no same-level pair needs a new
	// hard edge. Each iteration adds at least one edge, so this
	// terminates in O(n^2) iterations.
	var byLevel [][]string
	for iter := 0; ; iter++ {
		if iter > len(comp)*len(comp)+1 {
			return nil, fmt.Errorf("core: level scheduling did not converge for %v", comp)
		}
		project := func(src map[string]map[string]bool) map[int]map[int]bool {
			out := map[int]map[int]bool{}
			for a, tos := range src {
				ia, ok := idx[a]
				if !ok {
					continue
				}
				for b := range tos {
					if ib, ok := idx[b]; ok {
						if out[ia] == nil {
							out[ia] = map[int]bool{}
						}
						out[ia][ib] = true
					}
				}
			}
			return out
		}
		levels := c.levelizeMixed(len(comp), project(c.hard), project(c.soft), comp)
		maxLevel := 0
		for _, l := range levels {
			if l > maxLevel {
				maxLevel = l
			}
		}
		byLevel = make([][]string, maxLevel+1)
		for i, l := range levels {
			byLevel[l] = append(byLevel[l], comp[i])
		}
		for _, lv := range byLevel {
			c.sortedByMention(lv)
		}
		if c.opts.NoParallelism {
			// Flatten every level deterministically.
			var chain []string
			for _, lv := range byLevel {
				chain = append(chain, lv...)
			}
			items := make([]graph.Node, len(chain))
			for i, n := range chain {
				items[i] = graph.NF{Name: n}
			}
			return graph.Seq{Items: items}, nil
		}
		if !c.resolveLevelPairs(byLevel) {
			break // stable
		}
	}

	// Build the per-level nodes.
	var items []graph.Node
	for _, lv := range byLevel {
		if len(lv) == 0 {
			continue
		}
		if len(lv) == 1 {
			items = append(items, graph.NF{Name: lv[0]})
			continue
		}
		stage, err := c.buildPar(lv)
		if err != nil {
			return nil, err
		}
		items = appendFlat(items, stage)
	}
	if len(items) == 1 {
		return items[0], nil
	}
	return graph.Seq{Items: items}, nil
}

// resolveLevelPairs checks every same-level NF pair that has no rule
// between them, mirroring the paper's exhaustive leaf/plain-parallelism
// dependency checks. It returns true when it added a hard edge (levels
// must be recomputed).
func (c *compiler) resolveLevelPairs(byLevel [][]string) bool {
	for _, lv := range byLevel {
		for i := 0; i < len(lv); i++ {
			for j := i + 1; j < len(lv); j++ {
				a, b := lv[i], lv[j]
				if c.pairs[[2]string{a, b}] {
					continue // rule already analyzed
				}
				pa, pb := c.profiles[a], c.profiles[b]
				if c.orderIrrelevant(pa, pb) {
					// Safe in either order: share a copy silently.
					c.connect(a, b)
					continue
				}
				if res := nfa.Analyze(pa, pb, c.opts.Analysis); res.Parallelizable {
					c.warnf("no rule orders %s and %s; parallelizing with %s's result winning conflicts", a, b, b)
					c.connect(a, b)
					c.addSoft(a, b)
					continue
				}
				if res := nfa.Analyze(pb, pa, c.opts.Analysis); res.Parallelizable {
					c.warnf("no rule orders %s and %s; parallelizing with %s's result winning conflicts", a, b, a)
					c.connect(a, b)
					c.addSoft(b, a)
					continue
				}
				c.warnf("%s and %s cannot run in parallel; executing %s first — regulate with explicit rules if undesired", a, b, a)
				c.connect(a, b)
				c.addHard(a, b)
				return true
			}
		}
	}
	return false
}

// buildPar constructs the node for one level. A level the cost rule
// keeps parallel becomes a Par: copy groups by share-compatibility
// (payload-touching NFs first so they land in the original, full copy),
// FullCopy flags, and merge operations ordered by NF rank. Any other
// level becomes a Seq of its members in rank order, the merge winner
// last — the sequential execution the Par's merge reproduces.
func (c *compiler) buildPar(level []string) (graph.Node, error) {
	branches := make([]graph.Node, len(level))
	branchIdx := map[string]int{}
	for i, n := range level {
		branches[i] = graph.NF{Name: n}
		branchIdx[n] = i
	}
	if !c.keepParallel(branches) {
		ranked := c.rankOrder(level)
		items := make([]graph.Node, len(ranked))
		for i, n := range ranked {
			items[i] = graph.NF{Name: n}
		}
		return graph.Seq{Items: items}, nil
	}

	// Assignment order: payload-touching NFs first (so the full v1 copy
	// hosts them and copies can stay header-only), then mention order.
	order := append([]string(nil), level...)
	sort.SliceStable(order, func(i, j int) bool {
		pi, pj := c.profiles[order[i]].TouchesPayload(), c.profiles[order[j]].TouchesPayload()
		if pi != pj {
			return pi
		}
		return c.index[order[i]] < c.index[order[j]]
	})

	var groups [][]string
	for _, n := range order {
		placed := false
		for gi, g := range groups {
			ok := true
			for _, m := range g {
				if !shareCompatible(c.profiles[n], c.profiles[m], c.opts.Analysis) {
					ok = false
					break
				}
			}
			if ok {
				groups[gi] = append(groups[gi], n)
				placed = true
				break
			}
		}
		if !placed {
			groups = append(groups, []string{n})
		}
	}
	if len(groups) > packet.MaxVersion {
		return nil, fmt.Errorf("core: level %v needs %d packet versions; metadata supports %d",
			level, len(groups), packet.MaxVersion)
	}

	// Group indices refer to branches, which are in mention order.
	groupIdx := make([][]int, len(groups))
	fullCopy := make([]bool, len(groups))
	versionOf := map[string]uint8{}
	for gi, g := range groups {
		for _, n := range g {
			groupIdx[gi] = append(groupIdx[gi], branchIdx[n])
			versionOf[n] = uint8(gi + 1)
			if gi > 0 && c.profiles[n].TouchesPayload() {
				fullCopy[gi] = true
			}
		}
		sort.Ints(groupIdx[gi])
	}

	return graph.Par{
		Branches: branches,
		Groups:   groupIdx,
		FullCopy: fullCopy,
		Ops:      c.mergeOps(level, versionOf),
	}, nil
}

// mergeOps derives the §5.3 merging operations for one parallel level:
// for every field written at the level, the highest-ranked writer wins;
// if that writer worked on a copy, a modify() pulls its value into v1.
// Header additions/removals from copied versions become add() splices.
func (c *compiler) mergeOps(level []string, versionOf map[string]uint8) []graph.MergeOp {
	ranked := c.rankOrder(level)
	rank := make(map[string]int, len(ranked))
	for i, n := range ranked {
		rank[n] = i
	}

	var ops []graph.MergeOp
	winner := map[packet.Field]string{}
	for _, n := range ranked {
		for _, f := range c.profiles[n].WriteSet() {
			winner[f] = n // later rank overwrites: last writer wins
		}
	}
	// Deterministic op order: by winning NF rank, then field value.
	type fw struct {
		f packet.Field
		n string
	}
	var fws []fw
	for f, n := range winner {
		fws = append(fws, fw{f, n})
	}
	sort.Slice(fws, func(i, j int) bool {
		if rank[fws[i].n] != rank[fws[j].n] {
			return rank[fws[i].n] < rank[fws[j].n]
		}
		return fws[i].f < fws[j].f
	})
	for _, x := range fws {
		if v := versionOf[x.n]; v > 1 {
			ops = append(ops, graph.MergeOp{
				Kind: graph.OpModify, SrcVersion: v, SrcField: x.f, DstField: x.f,
			})
		}
	}
	for _, n := range ranked {
		if !c.profiles[n].AddsOrRemoves() {
			continue
		}
		if v := versionOf[n]; v > 1 {
			for _, a := range c.profiles[n].Actions {
				if a.Op != nfa.OpAddRm {
					continue
				}
				ops = append(ops, graph.MergeOp{
					Kind: graph.OpAdd, SrcVersion: v, SrcField: a.Field,
					DstField: packet.FieldIPHeader, After: true,
				})
			}
		}
	}
	return ops
}

// rankOrder returns the level's members in sequential-equivalence
// order, the merge winner last: a topological order over the soft
// (loser→winner) edges restricted to the level, with mention order
// breaking ties. A soft-edge cycle (contradictory Priority/Order
// combinations) is broken deterministically with a warning.
func (c *compiler) rankOrder(level []string) []string {
	in := map[string]int{}
	adj := map[string][]string{}
	members := map[string]bool{}
	for _, n := range level {
		members[n] = true
		in[n] = 0
	}
	for a, tos := range c.soft {
		if !members[a] {
			continue
		}
		for b := range tos {
			if members[b] {
				adj[a] = append(adj[a], b)
				in[b]++
			}
		}
	}
	ranked := make([]string, 0, len(level))
	remaining := append([]string(nil), level...)
	c.sortedByMention(remaining)
	for len(remaining) > 0 {
		pick := -1
		for i, n := range remaining {
			if in[n] == 0 {
				pick = i
				break
			}
		}
		if pick == -1 {
			// Cycle among soft edges; break it at the earliest mention.
			c.warnf("contradictory parallel priorities among %v; using mention order", remaining)
			pick = 0
		}
		n := remaining[pick]
		remaining = append(remaining[:pick], remaining[pick+1:]...)
		ranked = append(ranked, n)
		for _, m := range adj[n] {
			in[m]--
		}
	}
	return ranked
}

// shareCompatible reports whether two NFs may operate on the same
// packet copy simultaneously: neither writes a field the other reads
// or writes, and neither restructures the packet. Drop actions never
// touch bytes and are always compatible. With Dirty Memory Reusing
// disabled, any write on either side forces separate copies.
func shareCompatible(p1, p2 nfa.Profile, opts nfa.Options) bool {
	if p1.AddsOrRemoves() && len(p2.Actions) > 0 {
		return false
	}
	if p2.AddsOrRemoves() && len(p1.Actions) > 0 {
		return false
	}
	writes := func(p nfa.Profile) bool { return len(p.WriteSet()) > 0 }
	if opts.DisableDirtyMemoryReusing && (writes(p1) || writes(p2)) &&
		len(p1.Actions) > 0 && len(p2.Actions) > 0 {
		return false
	}
	conflict := func(w, other nfa.Profile) bool {
		for _, f := range w.WriteSet() {
			for _, a := range other.Actions {
				if a.Op == nfa.OpDrop {
					continue
				}
				if a.Field.Overlaps(f) {
					return true
				}
			}
		}
		return false
	}
	if conflict(p1, p2) || conflict(p2, p1) {
		return false
	}
	if writesIPHeader(p1) && writesIPHeader(p2) {
		// Two writers of any IPv4 header field cannot share a copy even
		// when the fields are disjoint: both rewrite the (hidden)
		// header checksum bytes — a genuine write-write race.
		return false
	}
	// Similarly, a 5-tuple writer rewrites the (hidden) TCP/UDP
	// checksum bytes, so it cannot share with anything touching the
	// whole L4 header.
	touchesL4 := func(p nfa.Profile) bool {
		for _, a := range p.Actions {
			if a.Field == packet.FieldL4Header {
				return true
			}
		}
		return false
	}
	writesTuple := func(p nfa.Profile) bool {
		for _, f := range p.WriteSet() {
			switch f {
			case packet.FieldSrcIP, packet.FieldDstIP, packet.FieldSrcPort, packet.FieldDstPort:
				return true
			}
		}
		return false
	}
	if (writesTuple(p1) && touchesL4(p2)) || (writesTuple(p2) && touchesL4(p1)) {
		return false
	}
	// Well-behaved NFs refresh the L4 checksum after writing any
	// checksum-covered field (the 5-tuple or the payload); two such
	// writers would race on the checksum bytes even when their declared
	// fields are disjoint.
	writesChecksummed := func(p nfa.Profile) bool {
		for _, f := range p.WriteSet() {
			switch f {
			case packet.FieldSrcIP, packet.FieldDstIP,
				packet.FieldSrcPort, packet.FieldDstPort,
				packet.FieldPayload, packet.FieldL4Header:
				return true
			}
		}
		return false
	}
	return !(writesChecksummed(p1) && writesChecksummed(p2))
}

// writesIPHeader reports whether the profile writes any field living in
// the IPv4 header.
func writesIPHeader(p nfa.Profile) bool {
	for _, f := range p.WriteSet() {
		if f.Overlaps(packet.FieldIPHeader) {
			return true
		}
	}
	return false
}

// levelizeMixed assigns longest-path levels to n nodes where hard
// edges force a strictly later level (weight 1) and soft edges —
// parallelizable ordered pairs — forbid running earlier than the
// predecessor (weight 0: same level is fine, an earlier one is not,
// since an ordered-but-parallelizable successor must never act on the
// packet before its predecessor except under the merge's copy
// isolation, which only exists within one level).
//
// Contradictory soft edges (a Priority against the Order closure) are
// dropped deterministically with a warning.
func (c *compiler) levelizeMixed(n int, hard, soft map[int]map[int]bool, names []string) []int {
	type edge struct {
		to     int
		weight int
		soft   bool
	}
	adj := make([][]edge, n)
	indeg := make([]int, n)
	for a, tos := range hard {
		for b := range tos {
			adj[a] = append(adj[a], edge{to: b, weight: 1})
			indeg[b]++
		}
	}
	for a, tos := range soft {
		for b := range tos {
			if hard[a][b] {
				continue // hard already subsumes the constraint
			}
			adj[a] = append(adj[a], edge{to: b, weight: 0, soft: true})
			indeg[b]++
		}
	}

	levels := make([]int, n)
	done := make([]bool, n)
	remaining := n
	for remaining > 0 {
		progressed := false
		for v := 0; v < n; v++ {
			if done[v] || indeg[v] != 0 {
				continue
			}
			done[v] = true
			remaining--
			progressed = true
			for _, e := range adj[v] {
				if l := levels[v] + e.weight; l > levels[e.to] {
					levels[e.to] = l
				}
				indeg[e.to]--
			}
		}
		if progressed {
			continue
		}
		// Cycle through soft edges: break one deterministically.
		broken := false
		for v := 0; v < n && !broken; v++ {
			if done[v] {
				continue
			}
			for i, e := range adj[v] {
				if e.soft && !done[e.to] {
					c.warnf("contradictory priority between %s and %s; ignoring the weaker constraint",
						names[v], names[e.to])
					indeg[e.to]--
					adj[v] = append(adj[v][:i], adj[v][i+1:]...)
					broken = true
					break
				}
			}
		}
		if !broken {
			// Hard cycle: policy validation should have rejected it;
			// flatten the remainder deterministically.
			for v := 0; v < n; v++ {
				if !done[v] {
					done[v] = true
					remaining--
				}
			}
		}
	}
	return levels
}
