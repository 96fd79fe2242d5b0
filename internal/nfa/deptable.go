package nfa

// CellVerdict is the value of one cell of the action dependency table
// (Table 3) for an ordered action pair (a1 from the earlier NF, a2 from
// the later NF).
type CellVerdict uint8

const (
	// ParallelNoCopy: the pair is safe to execute in parallel on the
	// same packet copy (a green block).
	ParallelNoCopy CellVerdict = iota
	// ParallelWithCopy: the pair can execute in parallel only if each
	// NF gets its own packet copy, merged afterwards (an orange block).
	ParallelWithCopy
	// NotParallelizable: sequential execution is required (a gray
	// block).
	NotParallelizable
)

// Decide evaluates one cell of Table 3 for Order(NF1 before NF2) with
// a1 ∈ NF1's actions and a2 ∈ NF2's actions.
//
// The table implemented here (rows NF1, columns NF2):
//
//	            Read            Write           Add/Rm   Drop
//	Read        no-copy         field? copy:nc  copy     no-copy
//	Write       field? NP:nc    field? copy:nc  copy     no-copy
//	Add/Rm      NP              NP              NP       NP
//	Drop        NP              NP              NP       NP
//
// ("field?" = the two actions operate on overlapping fields — the
// Dirty Memory Reusing refinement of §4.2 OP#1; NP = not
// parallelizable; nc = no copy.)
//
// Rationale, cell by cell, from the result correctness principle:
//
//   - (Read, Read): reading never mutates, share one copy.
//   - (Read, Write) same field: NF1 must observe the original value, so
//     each side gets a copy and the merger takes NF2's field.
//   - (Write, Read) same field: the operator intends NF1's modification
//     to reach NF2 — inherently sequential.
//   - (Write, Write) same field: NF2's value wins either way; copies
//     plus a merge that prefers NF2 reproduce sequential output.
//   - (·, Add/Rm): NF2 restructures the packet; merging splices NF2's
//     added header into NF1's view (Figure 6), which needs a copy.
//   - (Add/Rm, ·): NF1's structural change must be visible downstream
//     (e.g. everything after a VPN must see the encapsulated packet) —
//     sequential.
//   - (Drop, ·): if NF1 drops, sequential NF2 never observes the
//     packet; running NF2 anyway would corrupt its internal state
//     (counters, connection tables) — sequential.
//   - (·, Drop): NF2's drop is reconciled by the merger through a nil
//     packet (§5.3); NF1 processed the packet exactly as it would have
//     sequentially — safe without a copy.
func Decide(a1, a2 Action) CellVerdict {
	switch a1.Op {
	case OpRead:
		switch a2.Op {
		case OpRead, OpDrop:
			return ParallelNoCopy
		case OpWrite:
			if a1.Field.Overlaps(a2.Field) {
				return ParallelWithCopy
			}
			return ParallelNoCopy
		case OpAddRm:
			return ParallelWithCopy
		}
	case OpWrite:
		switch a2.Op {
		case OpRead:
			if a1.Field.Overlaps(a2.Field) {
				return NotParallelizable
			}
			return ParallelNoCopy
		case OpWrite:
			if a1.Field.Overlaps(a2.Field) {
				return ParallelWithCopy
			}
			return ParallelNoCopy
		case OpAddRm:
			return ParallelWithCopy
		case OpDrop:
			return ParallelNoCopy
		}
	case OpAddRm, OpDrop:
		return NotParallelizable
	}
	return NotParallelizable
}
