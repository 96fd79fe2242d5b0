package ahocorasick

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// hit is one reported occurrence.
type hit struct{ pattern, end int }

// naive is the oracle: every occurrence, found by trying each pattern at
// every offset, in Match's order — by end offset, longest pattern first,
// equal patterns by index.
func naive(patterns [][]byte, data []byte) []hit {
	var hits []hit
	for off := 0; off < len(data); off++ {
		for pi, p := range patterns {
			if len(p) > 0 && bytes.HasPrefix(data[off:], p) {
				hits = append(hits, hit{pi, off + len(p)})
			}
		}
	}
	slices.SortStableFunc(hits, func(a, b hit) int {
		if a.end != b.end {
			return a.end - b.end
		}
		if la, lb := len(patterns[a.pattern]), len(patterns[b.pattern]); la != lb {
			return lb - la
		}
		return a.pattern - b.pattern
	})
	return hits
}

// collect runs Match, stopping after limit occurrences (0: never).
func collect(m *Matcher, data []byte, limit int) []hit {
	var hits []hit
	m.Match(data, func(p, end int) bool {
		hits = append(hits, hit{p, end})
		return len(hits) != limit
	})
	return hits
}

// checkOracle holds Match, First, Contains and early stop to the oracle.
func checkOracle(t *testing.T, patterns [][]byte, data []byte) {
	t.Helper()
	m := New(patterns)
	want := naive(patterns, data)
	if got := collect(m, data, 0); !slices.Equal(got, want) {
		t.Fatalf("patterns %q data %q:\nMatch %v\nwant  %v", patterns, data, got, want)
	}
	first := -1
	if len(want) > 0 {
		first = want[0].pattern
	}
	if got := m.First(data); got != first {
		t.Fatalf("patterns %q data %q: First = %d, want %d", patterns, data, got, first)
	}
	if got := m.Contains(data); got != (first >= 0) {
		t.Fatalf("patterns %q data %q: Contains = %v", patterns, data, got)
	}
	for limit := 1; limit < len(want) && limit <= 4; limit++ {
		if got := collect(m, data, limit); !slices.Equal(got, want[:limit]) {
			t.Fatalf("patterns %q data %q: stopping after %d gave %v, want %v", patterns, data, limit, got, want[:limit])
		}
	}
}

func TestMatchesOracle(t *testing.T) {
	cases := []struct {
		name     string
		patterns []string
		data     string
	}{
		{"overlapping", []string{"aa", "aaa"}, "aaaaab aaa"},
		{"suffixes and prefixes", []string{"abcd", "bcd", "cd", "ab", "abc", "d"}, "xabcdabcabcd"},
		{"duplicates", []string{"xy", "x", "x", "xy"}, "xxyx"},
		{"empty ignored", []string{"", "a", ""}, "banana"},
		{"single byte", []string{"z"}, "zzaz"},
		{"classic", []string{"he", "she", "his", "hers"}, "ushers ahishers"},
		{"no match", []string{"attack"}, "attac attck"},
		{"match at end", []string{"end"}, "the end"},
		{"empty data", []string{"a"}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkOracle(t, pats(c.patterns...), []byte(c.data))
		})
	}
}

// skipCase is one input aimed at the window skip.
type skipCase struct {
	name     string
	patterns [][]byte
	data     []byte
}

// skipCases are rule sets whose shortest pattern, and so the skip
// window, is 1, 2, 3, 15 or 300 bytes (the window capped at 255), with
// that pattern also inside and at the end of longer ones. Each runs
// over all-0x00 and all-0xFF data: clean, shorter than the window,
// exactly one window holding the pattern, and with a hit at, across or
// just past the first four-window block edge or ending at len(data).
func skipCases() []skipCase {
	var cases []skipCase
	for _, l := range []int{1, 2, 3, 15, 300} {
		w := min(l, 255)
		short := make([]byte, l)
		for k := range short {
			short[k] = 'a' + byte(k%7)
		}
		infix := append(append([]byte("Q"), short...), 'R')
		suffix := append([]byte("PP"), short...)
		patterns := [][]byte{infix, suffix, short}
		for _, fill := range []byte{0x00, 0xff} {
			n := 8*w + l + 3
			add := func(what string, size, at int, hit []byte) {
				data := bytes.Repeat([]byte{fill}, size)
				copy(data[at:], hit)
				cases = append(cases, skipCase{fmt.Sprintf("L%d/%#02x/%s", l, fill, what), patterns, data})
			}
			add("clean", n, 0, nil)
			add("shorter than the window", w-1, 0, nil)
			add("one window", l, 0, short)
			add("at the block edge", n, 4*w, short)
			add("across the block edge", n, 4*w-(l+1)/2, short)
			add("infix across the block edge", n, 4*w-1, infix)
			add("past the block edge", n, 4*w+1, short)
			add("at the end", n, n-len(suffix), suffix)
		}
	}
	return cases
}

// joinPatterns encodes patterns as FuzzMatch's blob, '|'-separated.
func joinPatterns(patterns [][]byte) []byte {
	return append([]byte("|"), bytes.Join(patterns, []byte("|"))...)
}

func TestSkipWindowAgainstOracle(t *testing.T) {
	for _, c := range skipCases() {
		t.Run(c.name, func(t *testing.T) {
			checkOracle(t, c.patterns, c.data)
		})
	}
}

// TestAllByteValues: a rule set that uses every byte value has exactly
// 256 classes and no shared "other" class; one that misses a byte has
// 256 with it.
func TestAllByteValues(t *testing.T) {
	var all [][]byte
	for b := 0; b < 256; b++ {
		all = append(all, []byte{byte(b), byte(255 - b)})
	}
	data := make([]byte, 2048)
	rand.New(rand.NewSource(3)).Read(data)
	if m := New(all); m.stride != 256 {
		t.Fatalf("all 256 bytes: %d classes, want 256", m.stride)
	}
	checkOracle(t, all, data)

	var most [][]byte
	for b := 0; b < 255; b++ {
		most = append(most, []byte{byte(b)})
	}
	if m := New(most); m.stride != 256 {
		t.Fatalf("255 bytes: %d classes, want 256", m.stride)
	}
	checkOracle(t, most, data)
}

// TestSignatureTable pins the layout the IDS runs: the 100 evaluation
// signatures need 19 classes, so the table is 817 states × 19.
func TestSignatureTable(t *testing.T) {
	var sigs [][]byte
	for i := 0; i < 100; i++ {
		sigs = append(sigs, []byte(fmt.Sprintf("SIG-%04d-ATTACK", i)))
	}
	m := New(sigs)
	if m.stride != 19 || m.States() != 817 || len(m.next) != 817*19 {
		t.Fatalf("%d states × %d classes, table %d cells; want 817 × 19", m.States(), m.stride, len(m.next))
	}
	checkOracle(t, sigs, []byte("xxSIG-0042-ATTACKSIG-0099-ATTACKSIG-01SIG-0100-ATTACK"))
}

func TestRandomAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, alphabet := range []string{"ab", "abc\x00", "SIG-0123ATCK"} {
		for trial := 0; trial < 300; trial++ {
			word := func(n int) []byte {
				w := make([]byte, n)
				for i := range w {
					w[i] = alphabet[rng.Intn(len(alphabet))]
				}
				return w
			}
			patterns := make([][]byte, rng.Intn(8))
			for i := range patterns {
				patterns[i] = word(rng.Intn(6))
			}
			checkOracle(t, patterns, word(rng.Intn(80)))
		}
	}
}

// splitPatterns decodes a fuzz input: the first byte is a separator,
// the rest the patterns between separators.
func splitPatterns(blob []byte) [][]byte {
	if len(blob) == 0 {
		return nil
	}
	return bytes.Split(blob[1:], blob[:1])
}

func FuzzMatch(f *testing.F) {
	f.Add([]byte("|he|she|his|hers"), []byte("ushers"))
	f.Add([]byte("|aa|aaa|a"), []byte("aaaaaa"))
	f.Add([]byte("\x00\xff\x00\x01\x00\x00\x00\xfe"), []byte("\x01\xff\x01\x00\xfe"))
	for _, c := range skipCases() {
		f.Add(joinPatterns(c.patterns), c.data)
	}
	f.Fuzz(func(t *testing.T, blob, data []byte) {
		patterns := splitPatterns(blob)
		if len(patterns) > 64 || len(data) > 4096 {
			return // the oracle is quadratic
		}
		checkOracle(t, patterns, data)
	})
}
