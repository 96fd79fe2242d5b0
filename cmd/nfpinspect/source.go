package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"nfp/internal/core"
	"nfp/internal/dataplane"
	"nfp/internal/experiments"
	"nfp/internal/policy"
	"nfp/internal/telemetry"
	"nfp/internal/trafficgen"
)

// jsonReport is the -json help of every subcommand that renders a report.
const jsonReport = "emit raw JSON instead of the report"

// source is the flag set every subcommand shares: where its data comes
// from — a running server (-addr) or a fresh in-process run of a chain
// (-chain, -packets, -seed) — and whether to emit raw JSON (-json).
type source struct {
	fs      *flag.FlagSet
	addr    string
	chain   string
	packets int
	seed    int64
	asJSON  bool
}

// newSource registers the shared flags of subcommand name. A subcommand
// that only reads a running server passes an empty chainUse and gets no
// in-process flags.
func newSource(name string, packets int, addrUse, chainUse, jsonUse string) *source {
	s := &source{fs: flag.NewFlagSet(name, flag.ExitOnError)}
	s.fs.StringVar(&s.addr, "addr", "", addrUse)
	if chainUse != "" {
		s.fs.StringVar(&s.chain, "chain", "", chainUse)
		s.fs.IntVar(&s.packets, "packets", packets, "packets for the in-process run")
		s.fs.Int64Var(&s.seed, "seed", 1, "traffic seed for the in-process run")
	}
	s.fs.BoolVar(&s.asJSON, "json", false, jsonUse)
	return s
}

// usage exits with the -addr/-chain synopsis; extra lists the
// subcommand's own flags.
func (s *source) usage(extra string) {
	fmt.Fprintf(os.Stderr, "usage: nfpinspect %s (-addr HOST:PORT | -chain nf1,nf2,...)%s [-json]\n", s.fs.Name(), extra)
	os.Exit(2)
}

// names splits -chain into trimmed NF names.
func (s *source) names() []string {
	names := strings.Split(s.chain, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	return names
}

// run is the one in-process run behind every -chain: it compiles the
// chain and drives -packets packets of a 32-flow mix (Zipf-skewed when
// zipf > 0) through it with opts.
func (s *source) run(zipf float64, opts experiments.LiveOptions) (experiments.LiveResult, error) {
	res, err := core.Compile(policy.FromChain(s.names()...), nil, core.Options{})
	if err != nil {
		return experiments.LiveResult{}, err
	}
	gen := trafficgen.New(trafficgen.Config{Flows: 32, Seed: s.seed, Zipf: zipf})
	return experiments.RunLiveGraphOpts(res.Graph, s.packets, gen, opts)
}

// banner announces a finished in-process run. It goes to stderr so -json
// output stays machine-parseable.
func (s *source) banner(detail string) {
	fmt.Fprintf(os.Stderr, "in-process run: %s, %d packets, %s\n\n", strings.Join(s.names(), " -> "), s.packets, detail)
}

// dump reads a running server's /debug/telemetry, or runs -chain
// in-process under cfg and snapshots it.
func (s *source) dump(cfg dataplane.Config) telemetry.Dump {
	var d telemetry.Dump
	switch {
	case s.addr != "":
		fetchJSON(s.addr, "/debug/telemetry", &d)
	case s.chain != "":
		live, err := s.run(0, experiments.LiveOptions{Config: cfg})
		if err != nil {
			metricsFail(err)
		}
		s.banner(fmt.Sprintf("seed %d", s.seed))
		d = telemetry.Dump{Metrics: *live.Telemetry, Traces: live.Traces}
	default:
		s.usage("")
	}
	return d
}

// fetchJSON scrapes one JSON endpoint of a running server.
func fetchJSON(addr, path string, v any) {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(addr + path)
	if err != nil {
		metricsFail(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		metricsFail(fmt.Errorf("%s returned %s", addr+path, resp.Status))
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		metricsFail(fmt.Errorf("decoding %s: %w", path, err))
	}
}

// emitJSON writes v to stdout as indented JSON.
func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		metricsFail(err)
	}
}

func metricsFail(err error) {
	fmt.Fprintf(os.Stderr, "nfpinspect metrics: %v\n", err)
	os.Exit(1)
}
