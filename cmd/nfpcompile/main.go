// nfpcompile runs the NFP orchestrator offline: it reads a policy file
// (the Table 1 rule syntax), compiles it into a service graph, and
// prints the graph, its metrics, the cost rule's verdict on every
// stage Algorithm 1 let run in parallel, and optionally Graphviz dot.
//
// Usage:
//
//	nfpcompile -policy chain.pol
//	nfpcompile -chain vpn,monitor,firewall,lb      # sequential sugar
//	nfpcompile -chain ids,monitor,lb -dot we.dot
//	nfpcompile -chain nat,lb -no-parallel
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"nfp/internal/core"
	"nfp/internal/dataplane"
	"nfp/internal/graph"
	"nfp/internal/nfa"
	"nfp/internal/policy"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "nfpcompile: %v\n", err)
		os.Exit(1)
	}
}

// run parses args, compiles the policy they name and writes the report
// to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("nfpcompile", flag.ContinueOnError)
	policyPath := fs.String("policy", "", "policy file in Order/Priority/Position syntax")
	chain := fs.String("chain", "", "comma-separated sequential chain (converted to Order rules)")
	dotPath := fs.String("dot", "", "write the compiled graph as Graphviz dot to this file")
	jsonOut := fs.Bool("json", false, "print the compiled classification/forwarding/merging tables as JSON")
	noParallel := fs.Bool("no-parallel", false, "disable parallelization (sequential compatibility mode)")
	noDirty := fs.Bool("no-dirty-reuse", false, "disable Dirty Memory Reusing (OP#1)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	pol, err := loadPolicy(*policyPath, *chain)
	if err != nil {
		return err
	}

	opts := core.Options{NoParallelism: *noParallel}
	opts.Analysis.DisableDirtyMemoryReusing = *noDirty
	res, err := core.Compile(pol, nil, opts)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "policy:")
	for _, r := range pol.Rules {
		fmt.Fprintf(w, "  %s\n", r)
	}
	fmt.Fprintf(w, "\nservice graph:        %s\n", res.Graph)
	fmt.Fprintf(w, "equivalent length:    %d (of %d NFs)\n",
		graph.EquivalentLength(res.Graph), graph.NFCount(res.Graph))
	fmt.Fprintf(w, "copies per packet:    %d\n", graph.TotalCopies(res.Graph))
	fmt.Fprintf(w, "max parallel degree:  %d\n", graph.MaxDegree(res.Graph))
	if len(res.Stages) == 0 {
		fmt.Fprintln(w, "stages:               none")
	} else {
		fmt.Fprintln(w, "stages:")
		for _, st := range res.Stages {
			fmt.Fprintf(w, "  %s\n", st)
		}
	}
	for _, warn := range res.Warnings {
		fmt.Fprintf(w, "warning:              %s\n", warn)
	}

	if *dotPath != "" {
		if err := os.WriteFile(*dotPath, []byte(graph.DOT(res.Graph, "nfp")), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "dot written:          %s\n", *dotPath)
	}

	if *jsonOut {
		b, err := dataplane.PlanJSON(1, res.Graph)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\ncompiled tables (CT/FT/merging, §4.4.3):\n%s\n", b)
	}
	return nil
}

func loadPolicy(path, chain string) (policy.Policy, error) {
	switch {
	case path != "" && chain != "":
		return policy.Policy{}, fmt.Errorf("use either -policy or -chain, not both")
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return policy.Policy{}, err
		}
		defer f.Close()
		return policy.Parse(f)
	case chain != "":
		names := strings.Split(chain, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
			if _, ok := nfa.LookupProfile(names[i]); !ok {
				return policy.Policy{}, fmt.Errorf("unknown NF %q (known: %s)", names[i], strings.Join(nfa.Names(), ", "))
			}
		}
		return policy.FromChain(names...), nil
	}
	return policy.Policy{}, fmt.Errorf("provide -policy FILE or -chain nf1,nf2,...")
}
