// Package nfa implements NFP's NF action model: the per-NF action
// profiles of Table 2, the action dependency table of Table 3, and the
// NF Parallelism Identification algorithm (Algorithm 1) that together
// let the orchestrator decide whether two NFs ordered by an Order rule
// can run in parallel, and whether parallel execution needs a packet
// copy.
//
// The governing rule is the paper's result correctness principle
// (§4.1): two NFs can work in parallel iff parallel execution yields
// the same processed packet and NF internal states as sequential
// composition.
package nfa

import (
	"fmt"
	"strings"

	"nfp/internal/packet"
)

// Op is the kind of action an NF performs on a packet (Table 2 legend:
// R for Read, W for Write, Add/Rm for header addition/removal, Drop).
type Op uint8

const (
	// OpRead reads a packet field.
	OpRead Op = iota
	// OpWrite modifies a packet field.
	OpWrite
	// OpAddRm adds a header to or removes a header from the packet.
	OpAddRm
	// OpDrop may discard the packet.
	OpDrop

	numOps
)

var opNames = [numOps]string{"read", "write", "add/rm", "drop"}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Action is a single (operation, field) pair. OpDrop actions carry
// FieldNone; OpAddRm actions carry the header field added/removed
// (e.g. packet.FieldAH for the VPN).
type Action struct {
	Op    Op
	Field packet.Field
}

func (a Action) String() string {
	if a.Op == OpDrop {
		return "drop"
	}
	return fmt.Sprintf("%s(%s)", a.Op, a.Field)
}

// Read constructs a read action on field f.
func Read(f packet.Field) Action { return Action{OpRead, f} }

// Write constructs a write action on field f.
func Write(f packet.Field) Action { return Action{OpWrite, f} }

// AddRm constructs a header addition/removal action for header field f.
func AddRm(f packet.Field) Action { return Action{OpAddRm, f} }

// Drop constructs a drop action.
func Drop() Action { return Action{OpDrop, packet.FieldNone} }

// Profile is one row of the NF action table (Table 2): the complete set
// of actions an NF may perform on packets, plus its deployment share in
// enterprise networks (the "%" column, derived from Sekar et al.).
type Profile struct {
	// Name identifies the NF type (e.g. "firewall").
	Name string
	// Actions is the full action set of the NF.
	Actions []Action
	// DeployShare is the fraction of enterprise deployments running
	// this NF (0 when the paper gives no figure for the row).
	DeployShare float64
	// CostNS is the NF's busy nanoseconds per packet: what the
	// orchestrator weighs a parallel stage against the copy, hand-off
	// and merge that buy it. 0 means unknown, and Algorithm 1 alone
	// decides the NF's stages; inspector-derived and third-party
	// profiles and the synthetic NF carry 0.
	CostNS int64
}

// Drops reports whether the profile may drop packets.
func (p Profile) Drops() bool {
	for _, a := range p.Actions {
		if a.Op == OpDrop {
			return true
		}
	}
	return false
}

// AddsOrRemoves reports whether the profile changes packet structure.
func (p Profile) AddsOrRemoves() bool {
	for _, a := range p.Actions {
		if a.Op == OpAddRm {
			return true
		}
	}
	return false
}

// TouchesPayload reports whether any action involves the payload; such
// NFs disqualify their branch from Header-Only Copying.
func (p Profile) TouchesPayload() bool {
	for _, a := range p.Actions {
		if a.Field == packet.FieldPayload {
			return true
		}
	}
	return false
}

// WriteSet returns the fields the profile writes (OpWrite only).
func (p Profile) WriteSet() []packet.Field {
	var out []packet.Field
	for _, a := range p.Actions {
		if a.Op == OpWrite {
			out = append(out, a.Field)
		}
	}
	return out
}

func (p Profile) String() string {
	acts := make([]string, len(p.Actions))
	for i, a := range p.Actions {
		acts[i] = a.String()
	}
	return fmt.Sprintf("%s{%s}", p.Name, strings.Join(acts, ","))
}
