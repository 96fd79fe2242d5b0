// Package inspector implements the NF action inspector of §5.4: a
// static analysis that scans an NF's Go source for uses of the packet
// API and derives the NF's action profile, so operators can register
// new NFs without writing Table 2 rows by hand ("Operators can run the
// inspector against their NF code to automatically generate an action
// profile").
//
// The paper's tool analyzes DPDK packet-API call sites; this one
// analyzes calls on nfp's packet accessors (the moral equivalent),
// using only the standard library's go/ast toolchain.
package inspector

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"sort"

	"nfp/internal/nfa"
	"nfp/internal/packet"
)

// methodActions maps packet-API method names to the actions they imply.
var methodActions = map[string][]nfa.Action{
	// Reads.
	"SrcIP":   {nfa.Read(packet.FieldSrcIP)},
	"DstIP":   {nfa.Read(packet.FieldDstIP)},
	"SrcPort": {nfa.Read(packet.FieldSrcPort)},
	"DstPort": {nfa.Read(packet.FieldDstPort)},
	"TTL":     {nfa.Read(packet.FieldTTL)},
	"Payload": {nfa.Read(packet.FieldPayload)},
	// Writes.
	"SetSrcIP":   {nfa.Write(packet.FieldSrcIP)},
	"SetDstIP":   {nfa.Write(packet.FieldDstIP)},
	"SetSrcPort": {nfa.Write(packet.FieldSrcPort)},
	"SetDstPort": {nfa.Write(packet.FieldDstPort)},
	"SetTTL":     {nfa.Write(packet.FieldTTL)},
	// Structural changes.
	"InsertAt": {nfa.AddRm(packet.FieldAH)},
	"RemoveAt": {nfa.AddRm(packet.FieldAH)},
	"InsertAH": {nfa.AddRm(packet.FieldAH)},
	"RemoveAH": {nfa.AddRm(packet.FieldAH)},
	// Known helpers that expand to multi-field access: the packet-carried
	// key accessor reads the whole 5-tuple.
	"FlowKey": {
		nfa.Read(packet.FieldSrcIP), nfa.Read(packet.FieldDstIP),
		nfa.Read(packet.FieldSrcPort), nfa.Read(packet.FieldDstPort),
	},
	// Writing through XORKeyStream or an AEAD's Seal over a payload slice.
	"XORKeyStream": {nfa.Read(packet.FieldPayload), nfa.Write(packet.FieldPayload)},
	"Seal":         {nfa.Read(packet.FieldPayload), nfa.Write(packet.FieldPayload)},
}

// keyFieldWrites maps the fields of a packet.FlowKey to the write an
// assignment to one implies once the key goes back into the packet:
// SetTuple writes exactly the fields of the key that were changed, so
// `k.Src = vip; p.SetTuple(k)` is a write of the source address and of
// nothing else. Counted only in source that calls SetTuple.
var keyFieldWrites = map[string]nfa.Action{
	"Src":     nfa.Write(packet.FieldSrcIP),
	"Dst":     nfa.Write(packet.FieldDstIP),
	"SrcPort": nfa.Write(packet.FieldSrcPort),
	"DstPort": nfa.Write(packet.FieldDstPort),
}

// InspectSource derives the action profile of the NF implemented by
// the given Go source text. name becomes the profile name.
func InspectSource(name, src string) (nfa.Profile, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, name+".go", src, 0)
	if err != nil {
		return nfa.Profile{}, fmt.Errorf("inspector: %w", err)
	}
	return inspect(name, file), nil
}

// InspectFile derives the action profile from a Go source file on disk.
func InspectFile(name, path string) (nfa.Profile, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nfa.Profile{}, fmt.Errorf("inspector: %w", err)
	}
	return InspectSource(name, string(src))
}

func inspect(name string, file *ast.File) nfa.Profile {
	found := map[nfa.Action]bool{}
	drops := false
	var keyWrites []nfa.Action
	setsTuple := false

	ast.Inspect(file, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			if sel, ok := v.Fun.(*ast.SelectorExpr); ok {
				for _, a := range methodActions[sel.Sel.Name] {
					found[a] = true
				}
				setsTuple = setsTuple || sel.Sel.Name == "SetTuple"
			}
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok {
					if a, ok := keyFieldWrites[sel.Sel.Name]; ok {
						keyWrites = append(keyWrites, a)
					}
				}
			}
		case *ast.ReturnStmt:
			// A `return Drop` / `return nf.Drop` marks a dropping NF.
			for _, res := range v.Results {
				switch r := res.(type) {
				case *ast.Ident:
					if r.Name == "Drop" {
						drops = true
					}
				case *ast.SelectorExpr:
					if r.Sel.Name == "Drop" {
						drops = true
					}
				}
			}
		}
		return true
	})

	if drops {
		found[nfa.Drop()] = true
	}
	if setsTuple {
		for _, a := range keyWrites {
			found[a] = true
		}
	}
	actions := make([]nfa.Action, 0, len(found))
	for a := range found {
		actions = append(actions, a)
	}
	sort.Slice(actions, func(i, j int) bool {
		if actions[i].Op != actions[j].Op {
			return actions[i].Op < actions[j].Op
		}
		return actions[i].Field < actions[j].Field
	})
	return nfa.Profile{Name: name, Actions: actions}
}

// Diff compares an inspected profile against a declared one and
// returns human-readable discrepancies (empty = consistent). Used to
// validate hand-written Table 2 rows against actual NF code.
func Diff(declared, inspected nfa.Profile) []string {
	var out []string
	has := func(p nfa.Profile, a nfa.Action) bool {
		for _, x := range p.Actions {
			if x == a {
				return true
			}
		}
		return false
	}
	for _, a := range inspected.Actions {
		if !has(declared, a) {
			out = append(out, fmt.Sprintf("code performs %v but profile omits it", a))
		}
	}
	for _, a := range declared.Actions {
		if !has(inspected, a) {
			out = append(out, fmt.Sprintf("profile declares %v but code never does it", a))
		}
	}
	return out
}
