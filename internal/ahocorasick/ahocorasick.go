// Package ahocorasick implements the Aho-Corasick multi-pattern string
// matching automaton used by the IDS NF's signature matching engine
// ("a simple NF similar to the core signature matching component of the
// Snort intrusion detection system", §6.1).
//
// The automaton is built once from the rule set (control plane) and
// matched per packet with no allocation (fast path).
package ahocorasick

import (
	"fmt"
	"math"
)

// Matcher is an immutable Aho-Corasick automaton over byte patterns,
// stored as one flat DFA table:
//
//   - Byte classes. Each byte that occurs in some pattern is a class of
//     its own; every other byte shares one class, whose column sends
//     every state to the root. The table is states × classes, not
//     states × 256 (the 100 evaluation signatures use 19 classes).
//   - Premultiplied ids. A state's id is its row offset in next, so a
//     step is next[s+class[b]] — one dependent load per byte.
//   - Output states last. States at which some pattern ends are
//     numbered after all others, so "has output" is s >= matchMin.
//   - Root skip. At the root, bytes that start no pattern are skipped
//     through start, lookups independent of each other and of the
//     table, eight bytes at a time, until one leaves the root. It costs
//     the same whatever the number of distinct start bytes.
//
// Bound: states × classes must fit in an int32 (premultiplied ids);
// New panics on a rule set past it, which takes about eight million
// pattern bytes over 256 classes.
type Matcher struct {
	next     []int32
	class    [256]uint8
	start    [256]uint8 // start[b] is 1 if b moves the root to another state
	stride   int32      // number of classes
	matchMin int32      // id of the first output state
	// outs[outOff[k]:outOff[k+1]] are the pattern indices reported at
	// output state matchMin + k*stride: the patterns ending there, then
	// those of its suffix-link chain, longest first.
	outOff []int32
	outs   []int32
}

// New builds an automaton from the given patterns. Empty patterns are
// ignored. Pattern indices in match callbacks refer to positions in
// this slice.
func New(patterns [][]byte) *Matcher {
	m := &Matcher{}
	stride := m.classify(patterns)
	m.stride = stride

	// Phase 1: trie over classes; 0 in a goto cell is "no edge" (no
	// edge ever leads back to the root).
	trie := make([]int32, stride) // row 0 is the root
	own := [][]int32{nil}         // patterns ending at each node
	for pi, p := range patterns {
		if len(p) == 0 {
			continue
		}
		s := int32(0)
		for _, b := range p {
			cell := s*stride + int32(m.class[b])
			if trie[cell] == 0 {
				states := int64(len(own))
				if (states+1)*int64(stride) > math.MaxInt32 {
					panic(fmt.Sprintf("ahocorasick: %d states × %d classes overflows int32 state ids", states+1, stride))
				}
				trie[cell] = int32(states)
				trie = append(trie, make([]int32, stride)...)
				own = append(own, nil)
			}
			s = trie[cell]
		}
		own[s] = append(own[s], int32(pi))
	}
	n := int32(len(own))

	// Phase 2: BFS failure links, completing the trie into a DFA and
	// each node's output list (own patterns, then its failure node's).
	fail := make([]int32, n)
	out := make([][]int32, n)
	queue := make([]int32, 0, n)
	for c := int32(0); c < stride; c++ {
		if t := trie[c]; t != 0 {
			queue = append(queue, t)
			out[t] = own[t]
		}
	}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		f := fail[s]
		for c := int32(0); c < stride; c++ {
			t := trie[s*stride+c]
			if t == 0 {
				trie[s*stride+c] = trie[f*stride+c]
				continue
			}
			fail[t] = trie[f*stride+c]
			out[t] = append(own[t], out[fail[t]]...)
			queue = append(queue, t)
		}
	}

	// Phase 3: renumber — silent states first (the root stays 0), then
	// output states — and write the premultiplied table.
	id := make([]int32, n)
	k := int32(0)
	for s := int32(0); s < n; s++ {
		if len(out[s]) == 0 {
			id[s] = k * stride
			k++
		}
	}
	m.matchMin = k * stride
	m.outOff = []int32{0}
	for s := int32(0); s < n; s++ {
		if len(out[s]) > 0 {
			id[s] = k * stride
			k++
			m.outs = append(m.outs, out[s]...)
			m.outOff = append(m.outOff, int32(len(m.outs)))
		}
	}
	m.next = make([]int32, len(trie))
	for s := int32(0); s < n; s++ {
		row := m.next[id[s] : id[s]+stride]
		for c, t := range trie[s*stride : (s+1)*stride] {
			row[c] = id[t]
		}
	}
	for b := 0; b < 256; b++ {
		if m.next[m.class[b]] != 0 {
			m.start[b] = 1
		}
	}
	return m
}

// classify assigns byte classes in O(Σ|p|): pattern bytes number 0..k-1
// in order of first appearance, every other byte shares class k. It
// returns the number of classes (k, or k+1 with an "other" class).
func (m *Matcher) classify(patterns [][]byte) int32 {
	var seen [256]bool
	k := 0
	for _, p := range patterns {
		for _, b := range p {
			if !seen[b] {
				seen[b] = true
				m.class[b] = uint8(k)
				k++
			}
		}
	}
	if k == 256 {
		return 256
	}
	for b := 0; b < 256; b++ {
		if !seen[b] {
			m.class[b] = uint8(k)
		}
	}
	return int32(k + 1)
}

// States returns the number of automaton states (diagnostics).
func (m *Matcher) States() int { return len(m.next) / int(m.stride) }

// run advances the automaton from state s over data[i:] and stops just
// past the first byte that lands on an output state, returning that
// offset and state; with no output state ahead it returns len(data) and
// the state at the end.
func (m *Matcher) run(data []byte, i int, s int32) (int, int32) {
	next, class, start, matchMin := m.next, &m.class, &m.start, m.matchMin
	for i < len(data) {
		if s == 0 { // root skip
			for ; i+8 <= len(data); i += 8 {
				d := data[i : i+8]
				if start[d[0]]|start[d[1]]|start[d[2]]|start[d[3]]|start[d[4]]|start[d[5]]|start[d[6]]|start[d[7]] != 0 {
					break
				}
			}
			for i < len(data) && start[data[i]] == 0 {
				i++
			}
			if i == len(data) {
				return i, 0
			}
		}
		s = next[s+int32(class[data[i]])]
		i++
		if s >= matchMin {
			return i, s
		}
	}
	return i, s
}

// outputs returns the pattern indices reported at output state s.
func (m *Matcher) outputs(s int32) []int32 {
	k := (s - m.matchMin) / m.stride
	return m.outs[m.outOff[k]:m.outOff[k+1]]
}

// Match invokes visit for every pattern occurrence in data with the
// pattern index and the end offset (exclusive). Occurrences come in
// order of end offset, longest pattern first at the same end (equal
// patterns by index). Returning false from visit stops the scan early
// (IDS first-match semantics).
func (m *Matcher) Match(data []byte, visit func(pattern, end int) bool) {
	for i, s := 0, int32(0); i < len(data); {
		if i, s = m.run(data, i, s); s < m.matchMin {
			return
		}
		for _, p := range m.outputs(s) {
			if !visit(int(p), i) {
				return
			}
		}
	}
}

// Contains reports whether any pattern occurs in data.
func (m *Matcher) Contains(data []byte) bool { return m.First(data) >= 0 }

// First returns the index of the first pattern that completes a match
// in data, scanning left to right, or -1.
func (m *Matcher) First(data []byte) int {
	if _, s := m.run(data, 0, 0); s >= m.matchMin {
		return int(m.outputs(s)[0])
	}
	return -1
}
