package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nfp/internal/core"
	"nfp/internal/dataplane"
	"nfp/internal/experiments"
	"nfp/internal/faultinject"
	"nfp/internal/graph"
	"nfp/internal/nf"
	"nfp/internal/nfa"
	"nfp/internal/policy"
	"nfp/internal/telemetry"
	"nfp/internal/telemetry/diagnose"
	"nfp/internal/telemetry/flightrec"
	"nfp/internal/trafficgen"
)

// stdout runs a subcommand with os.Stdout redirected to a file and
// returns what it printed; the subcommand must succeed.
func stdout(t *testing.T, cmd func([]string) error, args ...string) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	err = cmd(args)
	os.Stdout = saved
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// serveLiveRun runs a few hundred packets through a real dataplane
// server with every packet sampled, a heavy-hitter sketch, a
// diagnoser, an incident spool and one injected monitor panic, then
// serves its endpoints the way nfpd does.
func serveLiveRun(t *testing.T) *httptest.Server {
	t.Helper()
	res, err := core.Compile(policy.FromChain(nfa.NFIDS, nfa.NFMonitor, nfa.NFLB), nfa.LookupCostFree, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	sketch := diagnose.NewTopK(16)
	diag := diagnose.New(diagnose.Config{Registry: reg, TopK: sketch, SLOTargetP99: time.Second})
	srv := dataplane.New(dataplane.Config{
		PoolSize: 1024, Shards: 1, Telemetry: reg, FlowAccount: sketch, TraceSampleRate: 1,
	})
	err = srv.AddGraphProvide(1, res.Graph, func(_ int, node graph.NF) nf.NF {
		if node.Name == nfa.NFMonitor {
			return faultinject.NewPanicNF(nf.NewMonitor(), 100)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	snap, err := flightrec.NewSnapshotter(flightrec.SnapConfig{
		Dir: t.TempDir(), MinInterval: time.Millisecond,
		Recorder: srv.FlightRecorder(), Registry: reg, Build: srv.BuildInfo(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.FlightRecorder().SetOnIncident(func(reason string) { snap.Trigger(reason) })
	diag.SampleNow()
	gen := trafficgen.New(trafficgen.Config{Flows: 32, Seed: 1, Zipf: 1.3})
	if _, err := experiments.RunTraffic(srv, srv.InjectBatch, 400, 32, gen, nil); err != nil {
		t.Fatal(err)
	}
	diag.SampleNow()
	snap.Stop() // flush the panic's bundle into the spool

	extra := diag.Handlers()
	extra["/debug/flightrecorder"] = flightrec.Handler(srv.FlightRecorder(), reg, snap, srv.BuildInfo())
	extra["/debug/config"] = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_ = json.NewEncoder(w).Encode(srv.ConfigInfo())
	})
	web := httptest.NewServer(telemetry.Handler(reg, srv.Tracer(), extra))
	t.Cleanup(web.Close)
	return web
}

// TestReadersRenderLiveServer drives every reader subcommand's
// fetch-and-render path over -addr against a live run's endpoints: the
// report must carry its headline and the run's figures, and -json must
// be the server's JSON.
func TestReadersRenderLiveServer(t *testing.T) {
	t.Run("golden", testGoldens)
	web := serveLiveRun(t)
	addr := web.Listener.Addr().String()
	for _, tc := range []struct {
		cmd  string
		args []string
		want []string
	}{
		{"metrics", nil, []string{"COUNTERS", "nfp_injected_total", "HISTOGRAMS"}},
		{"trace", []string{"-max", "2"}, []string{"SPANS:", "e2e", "classify classifier", "more traced packets"}},
		{"criticalpath", nil, []string{"CRITICAL PATH:", "mid 1 —", "parallel speedup"}},
		{"health", nil, []string{"HEALTH:", "BOTTLENECKS", "SLO mid=1"}},
		{"top", []string{"-n", "3"}, []string{"TOP FLOWS:", "guaranteed heavy hitter"}},
		{"config", nil, []string{"CONFIG: generation 1 (0 reloads, 1 shards)", "injected 400 = outputs", "pool in use:  0 buffers", "initial install"}},
		{"incident", nil, []string{"FLIGHT RECORDER: ledger OK", "cause=panic", "NEWEST BUNDLE: incident-", "INCIDENT: panic:"}},
	} {
		t.Run(tc.cmd, func(t *testing.T) {
			cmd := readers[tc.cmd]
			out := stdout(t, cmd, append([]string{"-addr", addr}, tc.args...)...)
			for _, w := range tc.want {
				if !strings.Contains(out, w) {
					t.Errorf("output lacks %q:\n%s", w, out)
				}
			}
			raw := stdout(t, cmd, append([]string{"-addr", addr, "-json"}, tc.args...)...)
			if !json.Valid([]byte(raw)) {
				t.Errorf("-json output is not JSON:\n%s", raw)
			}
		})
	}

	chrome := filepath.Join(t.TempDir(), "trace.json")
	stdout(t, traceCmd, "-addr", addr, "-chrome", chrome, "-max", "0")
	if raw, err := os.ReadFile(chrome); err != nil || !json.Valid(raw) || len(raw) < 100 {
		t.Errorf("chrome trace: %d bytes, err %v", len(raw), err)
	}

	web.Close()
	for name, cmd := range readers {
		if err := cmd([]string{"-addr", addr}); err == nil {
			t.Errorf("%s against a closed server returned no error", name)
		}
	}
}

// TestIncidentReadsSpooledBundle renders, from -spool and from -file, a
// bundle that the snapshotter wrote after a recorded panic: its reason,
// its panic event and its build info must come through.
func TestIncidentReadsSpooledBundle(t *testing.T) {
	dir := t.TempDir()
	rec := flightrec.NewRecorder(flightrec.Config{Shards: 1})
	snap, err := flightrec.NewSnapshotter(flightrec.SnapConfig{
		Dir: dir, MinInterval: time.Millisecond, Recorder: rec,
		Build: map[string]string{"version": "test", "shards": "1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.SetOnIncident(func(reason string) { snap.Trigger(reason) })
	rec.Record(0, flightrec.Record{Kind: flightrec.KindPanic, Node: rec.Intern(nfa.NFMonitor)})
	snap.Stop()

	out := stdout(t, incidentCmd, "-spool", dir)
	for _, w := range []string{"SPOOL " + dir + ": 1 bundles", "INCIDENT: panic:monitor", "build: shards=1 version=test", "panic", "node=monitor"} {
		if !strings.Contains(out, w) {
			t.Errorf("-spool output lacks %q:\n%s", w, out)
		}
	}

	entries, err := flightrec.ListSpool(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("spool holds %d bundles (%v), want 1", len(entries), err)
	}
	var b flightrec.Bundle
	raw := stdout(t, incidentCmd, "-file", filepath.Join(dir, entries[0].File), "-json")
	if err := json.Unmarshal([]byte(raw), &b); err != nil {
		t.Fatalf("-file -json: %v\n%s", err, raw)
	}
	if b.Schema != flightrec.BundleSchema || !strings.HasPrefix(b.Reason, "panic:") {
		t.Fatalf("bundle schema %d reason %q, want schema %d and panic:*", b.Schema, b.Reason, flightrec.BundleSchema)
	}
	sawPanic := false
	for _, e := range b.Events {
		sawPanic = sawPanic || e.Kind == "panic"
	}
	if !sawPanic || len(b.Build) == 0 {
		t.Fatalf("bundle events %+v, build %v: want the panic and the build info", b.Events, b.Build)
	}
}
