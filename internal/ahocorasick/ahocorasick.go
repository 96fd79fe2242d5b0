// Package ahocorasick implements the Aho-Corasick multi-pattern string
// matching automaton used by the IDS NF's signature matching engine
// ("a simple NF similar to the core signature matching component of the
// Snort intrusion detection system", §6.1).
//
// The automaton is built once from the rule set (control plane) and
// matched per packet with no allocation (fast path). At the root the
// scan skips ahead a window of the shortest pattern's length at a time
// (the Set-Horspool rule), so its speed depends on that length and on
// how many payload bytes occur in no pattern's leading window.
package ahocorasick

import (
	"fmt"
	"math"
	"unsafe"
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
//   - Window skip. Every pattern is at least win bytes long (win is
//     the shortest pattern's length, capped at 255). At the root, the
//     scan reads the byte that ends the win-byte window at i and moves
//     i on by shift of it; it steps the table only on a shift of 0.
//     shift[b] is the least win-1-o over every pattern byte p[o] == b
//     with o < win, and win for a byte in no pattern's first win
//     bytes, so no occurrence starts in the bytes passed over and the
//     state there is the root. Four windows are sampled at once, their
//     loads independent; when all four shift win, i moves 4·win, and
//     otherwise the scan takes those four one at a time. With win == 1
//     this is a check of each byte against the pattern starts.
//
// Bound: states × classes must fit in an int32 (premultiplied ids);
// New panics on a rule set past it, which takes about eight million
// pattern bytes over 256 classes.
type Matcher struct {
	next     []int32
	class    [256]uint8
	shift    [256]uint8 // how far the root skip may move past a window ending in b
	win      int        // skip window: the shortest pattern's length, at most 255
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
	m.skipTable(patterns)
	return m
}

// skipTable sets win and shift (see Matcher). With no pattern, win is
// 255 and every byte shifts by it.
func (m *Matcher) skipTable(patterns [][]byte) {
	m.win = math.MaxUint8
	for _, p := range patterns {
		if len(p) > 0 && len(p) < m.win {
			m.win = len(p)
		}
	}
	for b := range m.shift {
		m.shift[b] = uint8(m.win)
	}
	for _, p := range patterns {
		for o := 0; o < len(p) && o < m.win; o++ {
			m.shift[p[o]] = min(m.shift[p[o]], uint8(m.win-1-o))
		}
	}
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
// a state below matchMin.
func (m *Matcher) run(data []byte, i int, s int32) (int, int32) {
	next, class, shift := m.next, &m.class, &m.shift
	w := m.win
	w1, w2, w3, step := w-1, 2*w, 3*w, 4*w
	for i < len(data) {
		if s == 0 { // window skip; e ends the window that starts at i
			e := i + w1
		skip:
			for {
				// Each shift is at most w, so the four AND to w only
				// when all four are w.
				for e+w3 < len(data) && shift[byteAt(data, e)]&shift[byteAt(data, e+w)]&shift[byteAt(data, e+w2)]&shift[byteAt(data, e+w3)] == uint8(w) {
					e += step
				}
				// Some window among those four shifts less, or they
				// run past the end: take them one at a time.
				for last := e + w3; e <= last; {
					if e >= len(data) {
						return len(data), 0 // no pattern fits in what is left
					}
					d := shift[data[e]]
					if d == 0 {
						break skip
					}
					e += int(d)
				}
			}
			i = e - w1
		}
		s = next[s+int32(class[data[i]])]
		i++
		if s >= m.matchMin {
			return i, s
		}
	}
	return i, s
}

// byteAt is data[j] without the bounds check. The skip loop's condition
// bounds all four of its reads (0 <= e < e+w < e+2w < e+3w < len(data),
// since i >= 0 and w >= 1); with a 1-byte window, checking them makes
// the scan about a quarter slower.
func byteAt(data []byte, j int) byte {
	return *(*byte)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(data)), j))
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
