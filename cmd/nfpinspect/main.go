// nfpinspect is the NFP introspection tool: the NF action inspector of
// §5.4 (statically analyze an NF's Go source, derive its action
// profile, optionally diff it against the declared catalog profile) and
// a reader of what a running nfpd serves (-addr) or has spooled
// (-spool, -file). It runs no dataplane of its own: nfpd does.
//
// Usage:
//
//	nfpinspect -name monitor internal/nf/monitor.go
//	nfpinspect -name lb -diff internal/nf/lb.go
//	nfpinspect metrics -addr localhost:9090
//	nfpinspect metrics -addr localhost:9090 -watch 2s
//	nfpinspect trace -addr localhost:9090 -chrome trace.json
//	nfpinspect criticalpath -addr localhost:9090
//	nfpinspect health -addr localhost:9090
//	nfpinspect top -addr localhost:9090 -n 5
//	nfpinspect config -addr localhost:9090
//	nfpinspect incident -addr localhost:9090
//	nfpinspect incident -spool /var/spool/nfp
package main

import (
	"flag"
	"fmt"
	"os"

	"nfp/internal/inspector"
	"nfp/internal/nfa"
)

// readers are the subcommands that render a running server's endpoints
// or its incident spool.
var readers = map[string]func(args []string) error{
	"metrics":      metricsCmd,
	"trace":        traceCmd,
	"criticalpath": criticalPathCmd,
	"health":       healthCmd,
	"top":          topCmd,
	"config":       configCmd,
	"incident":     incidentCmd,
}

func main() {
	if len(os.Args) > 1 {
		if cmd, ok := readers[os.Args[1]]; ok {
			if err := cmd(os.Args[2:]); err != nil {
				fmt.Fprintf(os.Stderr, "nfpinspect %s: %v\n", os.Args[1], err)
				os.Exit(1)
			}
			return
		}
	}
	name := flag.String("name", "", "NF type name for the generated profile")
	diff := flag.Bool("diff", false, "compare against the declared catalog profile")
	flag.Parse()

	if *name == "" || flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: nfpinspect -name NF [-diff] file.go")
		os.Exit(2)
	}
	prof, err := inspector.InspectFile(*name, flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "nfpinspect: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("inspected profile: %s\n", prof)
	fmt.Println("actions:")
	for _, a := range prof.Actions {
		fmt.Printf("  %s\n", a)
	}

	if *diff {
		declared, ok := nfa.LookupProfile(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "nfpinspect: no catalog profile named %q to diff against\n", *name)
			os.Exit(1)
		}
		diffs := inspector.Diff(declared, prof)
		if len(diffs) == 0 {
			fmt.Println("\ncatalog profile is consistent with the code")
			return
		}
		fmt.Println("\ndiscrepancies:")
		for _, d := range diffs {
			fmt.Printf("  %s\n", d)
		}
		os.Exit(1)
	}
}
