package main

import (
	"fmt"
	"time"
)

// configCmd implements `nfpinspect config`: the zero-downtime
// reconfiguration state of a running nfpd — live generation, compile
// hashes, reload/drain history, and the conservation counters that
// prove the swaps lost nothing.
func configCmd(args []string) error {
	src := newSource("config", "read a running server's /debug/config at this host:port")
	src.parseAddr(args, "")
	return show(src, "/debug/config", printConfig)
}

// configInfo is the part of a server's /debug/config report (the JSON
// of dataplane.ConfigInfo) that config renders.
type configInfo struct {
	Generation uint64 `json:"generation"`
	Reloads    uint64 `json:"reloads"`
	Shards     int    `json:"shards"`
	Injected   uint64 `json:"injected"`
	Outputs    uint64 `json:"outputs"`
	Drops      uint64 `json:"drops"`
	PoolInUse  int    `json:"pool_in_use"`
	History    []struct {
		Generation uint64 `json:"generation"`
		MID        uint32 `json:"mid"`
		Hash       string `json:"compile_hash"`
		SwappedNS  int64  `json:"swapped_ns"`
		DrainNS    int64  `json:"drain_ns"`
		Drained    uint64 `json:"drained"`
	} `json:"history"`
}

func printConfig(ci configInfo) {
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
