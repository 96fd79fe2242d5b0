package nfa

// ConflictPair records one conflicting action pair found by Algorithm 1
// (its "ca" output). The orchestrator turns conflict pairs into merging
// operations (§5.3).
type ConflictPair struct {
	A1, A2 Action
}

// Result is the output of Algorithm 1 for an ordered NF pair.
type Result struct {
	// Parallelizable is the algorithm's p output.
	Parallelizable bool
	// Conflicts is the algorithm's ca output; non-empty Conflicts mean
	// packet copying is required for parallel execution.
	Conflicts []ConflictPair
}

// NeedCopy reports whether parallel execution requires packet copying.
func (r Result) NeedCopy() bool {
	return r.Parallelizable && len(r.Conflicts) > 0
}

// Options tune the analysis.
type Options struct {
	// DisableDirtyMemoryReusing turns off OP#1 (§4.2): read-write and
	// write-write pairs on *different* fields then require a packet
	// copy instead of sharing one. The paper offers this switch for
	// operators who prefer strictly isolated copies; it trades memory
	// for the elimination of any chance of false sharing.
	DisableDirtyMemoryReusing bool
}

// Analyze runs Algorithm 1 ("NF Parallelism Identification") on
// Order(nf1, before, nf2): it fetches both action lists, walks every
// action pair against the dependency table, short-circuits on a
// not-parallelizable pair, and accumulates conflicting actions that
// force packet copying.
func Analyze(nf1, nf2 Profile, opts Options) Result {
	res := Result{Parallelizable: true}
	for _, a1 := range nf1.Actions {
		for _, a2 := range nf2.Actions {
			v := Decide(a1, a2)
			if opts.DisableDirtyMemoryReusing && v == ParallelNoCopy && dirtyReuseCell(a1, a2) {
				v = ParallelWithCopy
			}
			switch v {
			case NotParallelizable:
				return Result{Parallelizable: false}
			case ParallelWithCopy:
				res.Conflicts = append(res.Conflicts, ConflictPair{a1, a2})
			}
		}
	}
	return res
}

// dirtyReuseCell reports whether (a1, a2) landed in a green cell only
// because of the Dirty Memory Reusing different-fields refinement —
// i.e. a read-write or write-write pair on disjoint fields.
func dirtyReuseCell(a1, a2 Action) bool {
	rw := a1.Op == OpRead && a2.Op == OpWrite
	ww := a1.Op == OpWrite && a2.Op == OpWrite
	return (rw || ww) && !a1.Field.Overlaps(a2.Field)
}
