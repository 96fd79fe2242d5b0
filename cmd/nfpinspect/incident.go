package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"nfp/internal/telemetry/flightrec"
)

// incidentCmd implements `nfpinspect incident`: the post-mortem
// reader for the flight recorder. Three sources:
//
//	-addr HOST:PORT   read a running server's /debug/flightrecorder
//	                  (status + ledger + event tail + spool index,
//	                  and the newest bundle when one exists)
//	-spool DIR        read a spool directory offline (newest bundle)
//	-file BUNDLE      read one specific bundle file
func incidentCmd(args []string) error {
	src := newSource("incident", "read a running server's /debug/flightrecorder at this host:port")
	spool := src.fs.String("spool", "", "read the newest incident bundle from this spool directory")
	file := src.fs.String("file", "", "read this specific bundle file")
	tail := src.fs.Int("n", 32, "event-ring tail length to show")
	_ = src.fs.Parse(args)

	switch {
	case src.addr != "":
		var st flightrec.Status
		if err := src.fetch(fmt.Sprintf("/debug/flightrecorder?n=%d", *tail), &st); err != nil {
			return err
		}
		if src.asJSON {
			return emitJSON(st)
		}
		printStatus(st)
		if len(st.Incidents) > 0 {
			newest := st.Incidents[len(st.Incidents)-1]
			var b flightrec.Bundle
			if err := src.fetch("/debug/flightrecorder?incident="+newest.File, &b); err != nil {
				return err
			}
			fmt.Printf("\nNEWEST BUNDLE: %s\n", newest.File)
			printBundle(b, *tail)
		}
		return nil
	case *file != "":
	case *spool != "":
		entries, err := flightrec.ListSpool(*spool)
		if err != nil {
			return err
		}
		if len(entries) == 0 {
			fmt.Printf("spool %s: no incident bundles\n", *spool)
			return nil
		}
		if !src.asJSON {
			fmt.Printf("SPOOL %s: %d bundles\n", *spool, len(entries))
			for _, e := range entries {
				fmt.Printf("  %s  %-24s %6d bytes\n",
					time.Unix(0, e.TSNS).Format(time.RFC3339), e.Reason, e.Size)
			}
			fmt.Printf("\nNEWEST BUNDLE: %s\n", entries[len(entries)-1].File)
		}
		*file = filepath.Join(*spool, entries[len(entries)-1].File)
	default:
		fmt.Fprintln(os.Stderr, "usage: nfpinspect incident (-addr HOST:PORT | -spool DIR | -file BUNDLE) [-n 32] [-json]")
		os.Exit(2)
	}
	b, err := flightrec.ReadBundle(*file)
	if err != nil {
		return err
	}
	if src.asJSON {
		return emitJSON(b)
	}
	printBundle(*b, *tail)
	return nil
}

// printStatus renders the live /debug/flightrecorder report.
func printStatus(st flightrec.Status) {
	verdict := "OK"
	if !st.LedgerOK {
		verdict = "BROKEN: " + st.LedgerErr
	}
	fmt.Printf("FLIGHT RECORDER: ledger %s\n", verdict)
	if len(st.Build) > 0 {
		fmt.Printf("  build: %s\n", buildLine(st.Build))
	}
	printLedger(st.Ledger)
	if st.SpoolDir != "" {
		fmt.Printf("  spool: %s (%d written, %d suppressed by rate limit)\n",
			st.SpoolDir, st.Written, st.Suppressed)
	}
	for _, e := range st.Incidents {
		fmt.Printf("  incident: %s  %s\n", time.Unix(0, e.TSNS).Format(time.RFC3339), e.Reason)
	}
	printEvents(st.Events)
}

// printBundle renders one incident bundle.
func printBundle(b flightrec.Bundle, tail int) {
	fmt.Printf("INCIDENT: %s at %s (schema %d)\n",
		b.Reason, time.Unix(0, b.TSNS).Format(time.RFC3339), b.Schema)
	if len(b.Build) > 0 {
		fmt.Printf("  build: %s\n", buildLine(b.Build))
	}
	printLedger(b.Ledger)
	if len(b.Sources) > 0 {
		keys := make([]string, 0, len(b.Sources))
		for k := range b.Sources {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("  sections: %s\n", strings.Join(keys, ", "))
	}
	if b.Goroutines != "" {
		fmt.Printf("  goroutine dump: %d bytes\n", len(b.Goroutines))
	}
	ev := b.Events
	if len(ev) > tail {
		ev = ev[len(ev)-tail:]
	}
	printEvents(ev)
}

func printLedger(l flightrec.Ledger) {
	fmt.Printf("  drops: %d total", l.TotalDrops)
	causes := make([]string, 0, len(l.ByCause))
	for c := range l.ByCause {
		causes = append(causes, c)
	}
	sort.Strings(causes)
	for _, c := range causes {
		if l.ByCause[c] > 0 {
			fmt.Printf("  %s=%d", c, l.ByCause[c])
		}
	}
	fmt.Println()
}

func printEvents(events []flightrec.Event) {
	if len(events) == 0 {
		fmt.Println("  events: none recorded")
		return
	}
	fmt.Printf("\nEVENTS (%d newest)\n", len(events))
	for _, e := range events {
		var parts []string
		if e.Gen > 0 {
			parts = append(parts, fmt.Sprintf("gen=%d", e.Gen))
		}
		if e.Node != "" {
			parts = append(parts, "node="+e.Node)
		}
		if e.Cause != "" {
			parts = append(parts, "cause="+e.Cause)
		}
		if e.Stage != "" {
			parts = append(parts, "stage="+e.Stage)
		}
		if e.Detail != "" {
			parts = append(parts, "detail="+e.Detail)
		}
		if e.Flow != "" {
			parts = append(parts, "flow="+e.Flow)
		}
		if e.Count > 0 {
			parts = append(parts, fmt.Sprintf("count=%d", e.Count))
		}
		if e.LastTS != 0 {
			parts = append(parts, "until="+time.Unix(0, e.LastTS).Format("15:04:05.000"))
		}
		fmt.Printf("  %s  shard%d  %-12s %s\n",
			time.Unix(0, e.TS).Format("15:04:05.000"), e.Shard, e.Kind, strings.Join(parts, " "))
	}
}

func buildLine(build map[string]string) string {
	keys := make([]string, 0, len(build))
	for k := range build {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+"="+build[k])
	}
	return strings.Join(parts, " ")
}
