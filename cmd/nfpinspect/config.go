package main

import (
	"fmt"
	"os"
	"time"

	"nfp/internal/dataplane"
)

// configCmd implements `nfpinspect config`: the zero-downtime
// reconfiguration state of a running nfpd — live generation, compile
// hashes, reload/drain history, and the conservation counters that
// prove the swaps lost nothing.
func configCmd(args []string) {
	src := newSource("config", 0, "read a running server's /debug/config at this host:port", "", jsonReport)
	_ = src.fs.Parse(args)

	if src.addr == "" {
		fmt.Fprintln(os.Stderr, "usage: nfpinspect config -addr HOST:PORT [-json]")
		os.Exit(2)
	}
	var ci dataplane.ConfigInfo
	fetchJSON(src.addr, "/debug/config", &ci)
	if src.asJSON {
		emitJSON(ci)
		return
	}
	printConfig(ci)
}

func printConfig(ci dataplane.ConfigInfo) {
	fmt.Printf("CONFIG: generation %d (%d reloads, %d shards)\n", ci.Generation, ci.Reloads, ci.Shards)
	fmt.Printf("  conservation: injected %d = outputs %d + drops %d", ci.Injected, ci.Outputs, ci.Drops)
	if inflight := ci.Injected - ci.Outputs - ci.Drops; inflight != 0 {
		fmt.Printf(" + %d in flight", inflight)
	}
	fmt.Printf("\n  pool in use:  %d buffers\n", ci.PoolInUse)
	if len(ci.History) == 0 {
		return
	}
	fmt.Printf("\nGENERATIONS (newest last)\n")
	fmt.Printf("  %-4s %-4s %-16s %-20s %12s %10s\n", "gen", "mid", "compile hash", "swapped", "drain", "drained")
	for _, g := range ci.History {
		swapped, drain, drained := "initial install", "-", "-"
		if g.SwappedNS != 0 {
			swapped = time.Unix(0, g.SwappedNS).Format("15:04:05.000")
			drain = fmt.Sprintf("%.2fms", float64(g.DrainNS)/1e6)
			drained = fmt.Sprintf("%d", g.Drained)
		}
		fmt.Printf("  %-4d %-4d %-16s %-20s %12s %10s\n",
			g.Generation, g.MID, g.Hash, swapped, drain, drained)
	}
}
