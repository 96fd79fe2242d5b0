package dataplane

import "fmt"

// FusionMode selects the execution engine for installed graphs:
// pipelined (one goroutine + receive ring per NF) or hybrid
// run-to-completion (strictly sequential segments fused into one
// goroutine that invokes its NFs back-to-back on the same burst
// buffer, with rings only where the graph branches, merges, or
// crosses an isolation boundary).
type FusionMode uint8

const (
	// FusionOn (the zero value) fuses maximal strictly-sequential
	// segments (see Plan.FusedSegments) into single run-to-completion
	// runtimes.
	FusionOn FusionMode = iota
	// FusionOff runs the fully pipelined dataplane: every NF gets its
	// own runtime goroutine and receive ring.
	FusionOff
)

// String renders the mode as its flag spelling.
func (m FusionMode) String() string {
	switch m {
	case FusionOn:
		return "on"
	case FusionOff:
		return "off"
	}
	return fmt.Sprintf("fusion(%d)", uint8(m))
}

// enabled reports whether segment fusion applies.
func (m FusionMode) enabled() bool { return m != FusionOff }
