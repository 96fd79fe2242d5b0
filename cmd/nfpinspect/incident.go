package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"nfp/internal/core"
	"nfp/internal/dataplane"
	"nfp/internal/experiments"
	"nfp/internal/faultinject"
	"nfp/internal/nf"
	"nfp/internal/policy"
	"nfp/internal/telemetry"
	"nfp/internal/telemetry/flightrec"
	"nfp/internal/trafficgen"
)

// incidentCmd implements `nfpinspect incident`: the post-mortem
// reader for the flight recorder. Three sources:
//
//	-addr HOST:PORT   read a running server's /debug/flightrecorder
//	                  (status + ledger + event tail + spool index,
//	                  and the newest bundle when one exists)
//	-spool DIR        read a spool directory offline (newest bundle)
//	-file BUNDLE      read one specific bundle file
//	-chain nf1,...    run the chain in-process with an injected NF
//	                  panic and read the bundle it produces
func incidentCmd(args []string) {
	fs := flag.NewFlagSet("incident", flag.ExitOnError)
	addr := fs.String("addr", "", "read a running server's /debug/flightrecorder at this host:port")
	spool := fs.String("spool", "", "read the newest incident bundle from this spool directory")
	file := fs.String("file", "", "read this specific bundle file")
	chain := fs.String("chain", "", "run this comma-separated chain in-process with an injected panic")
	packets := fs.Int("packets", 50000, "packets for the in-process run")
	seed := fs.Int64("seed", 1, "traffic seed for the in-process run")
	panicAt := fs.Uint64("panic-at", 1000, "in-process run: panic the first NF on this packet")
	tail := fs.Int("n", 32, "event-ring tail length to show")
	asJSON := fs.Bool("json", false, "emit raw JSON instead of the report")
	_ = fs.Parse(args)

	switch {
	case *addr != "":
		var st flightrec.Status
		fetchJSON(*addr, fmt.Sprintf("/debug/flightrecorder?n=%d", *tail), &st)
		if *asJSON {
			emitJSON(st)
			return
		}
		printStatus(st)
		if len(st.Incidents) > 0 {
			newest := st.Incidents[len(st.Incidents)-1]
			var b flightrec.Bundle
			fetchJSON(*addr, "/debug/flightrecorder?incident="+newest.File, &b)
			fmt.Printf("\nNEWEST BUNDLE: %s\n", newest.File)
			printBundle(b, *tail)
		}
	case *file != "":
		bp, err := flightrec.ReadBundle(*file)
		if err != nil {
			metricsFail(err)
		}
		if *asJSON {
			emitJSON(bp)
			return
		}
		printBundle(*bp, *tail)
	case *spool != "":
		entries, err := flightrec.ListSpool(*spool)
		if err != nil {
			metricsFail(err)
		}
		if len(entries) == 0 {
			fmt.Printf("spool %s: no incident bundles\n", *spool)
			return
		}
		fmt.Printf("SPOOL %s: %d bundles\n", *spool, len(entries))
		for _, e := range entries {
			fmt.Printf("  %s  %-24s %6d bytes\n",
				time.Unix(0, e.TSNS).Format(time.RFC3339), e.Reason, e.Size)
		}
		newest := entries[len(entries)-1]
		bp, err := flightrec.ReadBundle(filepath.Join(*spool, newest.File))
		if err != nil {
			metricsFail(err)
		}
		if *asJSON {
			emitJSON(bp)
			return
		}
		fmt.Printf("\nNEWEST BUNDLE: %s\n", newest.File)
		printBundle(*bp, *tail)
	case *chain != "":
		bp, err := runIncident(*chain, *packets, *seed, *panicAt)
		if err != nil {
			metricsFail(err)
		}
		if *asJSON {
			emitJSON(bp)
			return
		}
		printBundle(*bp, *tail)
	default:
		fmt.Fprintln(os.Stderr, "usage: nfpinspect incident (-addr HOST:PORT | -spool DIR | -file BUNDLE | -chain nf1,nf2,...) [-n 32] [-json]")
		os.Exit(2)
	}
}

// runIncident compiles the chain, runs it in-process with the first NF
// scheduled to panic, spools the triggered bundle into a temp dir, and
// returns it parsed.
func runIncident(chain string, packets int, seed int64, panicAt uint64) (*flightrec.Bundle, error) {
	names := strings.Split(chain, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	res, err := core.Compile(policy.FromChain(names...), nil, core.Options{})
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "nfp-incident-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	gen := trafficgen.New(trafficgen.Config{Flows: 32, Seed: seed})
	var snap *flightrec.Snapshotter
	opts := experiments.LiveOptions{
		Config: dataplane.Config{Telemetry: telemetry.NewRegistry()},
		WrapNF: func(name string, inst nf.NF) nf.NF {
			if name == names[0] {
				return faultinject.NewPanicNF(inst, panicAt)
			}
			return inst
		},
		OnServer: func(s *dataplane.Server) {
			snap, err = flightrec.NewSnapshotter(flightrec.SnapConfig{
				Dir:         dir,
				MinInterval: time.Millisecond,
				Recorder:    s.FlightRecorder(),
				Registry:    s.Telemetry(),
				Build:       s.BuildInfo(),
			})
			if err == nil {
				s.FlightRecorder().SetOnIncident(func(reason string) { snap.Trigger(reason) })
			}
		},
	}
	if _, rerr := experiments.RunLiveGraphOpts(res.Graph, packets, gen, opts); rerr != nil {
		return nil, rerr
	}
	if err != nil {
		return nil, err
	}
	snap.Stop() // flush the pending trigger before reading the spool
	entries, err := flightrec.ListSpool(dir)
	if err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("injected panic at packet %d produced no incident bundle", panicAt)
	}
	fmt.Fprintf(os.Stderr, "in-process run: %s, %d packets, %s panicked at packet %d\n\n",
		strings.Join(names, " -> "), packets, names[0], panicAt)
	return flightrec.ReadBundle(filepath.Join(dir, entries[len(entries)-1].File))
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
