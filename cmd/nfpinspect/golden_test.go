package main

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"nfp/internal/dataplane"
	"nfp/internal/packet"
	"nfp/internal/telemetry"
	"nfp/internal/telemetry/diagnose"
	"nfp/internal/telemetry/flightrec"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/* from the current output")

// fixture is a server whose every endpoint serves fixed content: the
// registry, spans, flows, config and flight-recorder events are set by
// hand, so only clock readings differ between runs (normalize strips
// them).
type fixture struct {
	web   *httptest.Server
	spool string
}

// serveFixture builds the fixture's registry, tracer, diagnoser,
// heavy-hitter sketch, flight recorder and spool, and serves them the
// way nfpd does.
func serveFixture(t *testing.T) fixture {
	t.Helper()
	reg := telemetry.NewRegistry()
	nf := func(name, mid string) []telemetry.Label {
		return []telemetry.Label{telemetry.L("nf", name), telemetry.L("mid", mid)}
	}
	reg.Counter("nfp_injected_total").Add(400)
	reg.Counter("nfp_outputs_total").Add(390)
	reg.Counter(flightrec.MetricDrops).Add(10)
	reg.Counter(flightrec.MetricDrops, telemetry.L("cause", "nf_verdict"), telemetry.L("nf", "firewall")).Add(7)
	reg.Counter(flightrec.MetricDrops, telemetry.L("cause", "panic"), telemetry.L("nf", "monitor")).Add(3)
	reg.Counter("nfp_classifier_cache_hits_total").Add(368)
	reg.Counter("nfp_classifier_cache_misses_total").Add(32)
	reg.Gauge("nfp_classifier_rules").Set(2)
	reg.Gauge("nfp_classifier_tuples").Set(1)
	for i, n := range []struct {
		name, mid string
		in        uint64
		healthy   int64
	}{
		{"ids", "1", 400, 1}, {"monitor", "1", 400, 0}, {"firewall", "1", 397, 1},
		{"lb", "10", 390, 1}, {"lb", "2", 12, 1},
	} {
		reg.Counter("nfp_nf_packets_in_total", nf(n.name, n.mid)...).Add(n.in)
		reg.Gauge("nfp_nf_ring_capacity", nf(n.name, n.mid)...).Set(1024)
		reg.Gauge("nfp_nf_ring_high_water", nf(n.name, n.mid)...).Set(int64(64 * (i + 1)))
		reg.Gauge("nfp_nf_healthy", nf(n.name, n.mid)...).Set(n.healthy)
		reg.Histogram("nfp_nf_service_time_ns", nf(n.name, n.mid)...).Record(int64(500 * (i + 1)))
	}
	reg.Histogram("nfp_e2e_latency_ns", telemetry.L("mid", "1")).Record(9000)
	reg.Histogram("nfp_e2e_latency_ns", telemetry.L("mid", "10")).Record(4000)

	sketch := diagnose.NewTopK(8)
	for i := 0; i < 6; i++ {
		k := packet.FlowKey{
			Src: [4]byte{10, 0, 0, byte(i + 1)}, Dst: [4]byte{10, 9, 0, 1},
			SrcPort: uint16(4000 + i), DstPort: 80, Proto: 6,
		}
		sketch.ObserveFlow(k, uint64(100>>i), uint64(100>>i)*512)
	}
	diag := diagnose.New(diagnose.Config{Registry: reg, TopK: sketch, SLOTargetP99: 5 * time.Microsecond})
	diag.SampleNow()
	// Only histograms move inside the window: service times and SLO
	// burn are deterministic, and every rate reads 0 whatever the
	// window's length.
	for i, name := range []string{"ids", "monitor", "firewall"} {
		h := reg.Histogram("nfp_nf_service_time_ns", nf(name, "1")...)
		for j := 0; j < 10; j++ {
			h.Record(int64(1000*(i+1) + 100*j))
		}
	}
	e2e := reg.Histogram("nfp_e2e_latency_ns", telemetry.L("mid", "1"))
	for j := 0; j < 100; j++ {
		e2e.Record(int64(3000 + 100*j))
	}
	diag.SampleNow()

	tr := telemetry.NewTracer(1, 64)
	tr.SetEvictedCounter(reg.Counter("nfp_trace_evicted_total"))
	const t0 = 1_000_000
	for _, ev := range []telemetry.TraceEvent{
		// pid 3: only its tail, as if the ring had evicted its head.
		{PID: 3, MID: 1, Ver: 1, Stage: telemetry.StageNF, Name: "lb", Begin: t0 - 2000, TS: t0 - 1000},
		{PID: 3, MID: 1, Ver: 1, Stage: telemetry.StageOutput, Begin: t0 - 1000, TS: t0 - 900},
		// pid 7: a sequential chain.
		{PID: 7, MID: 1, Ver: 1, Stage: telemetry.StageClassify, Name: "classifier", Begin: t0, TS: t0 + 300},
		{PID: 7, MID: 1, Ver: 1, Stage: telemetry.StageRingWait, Begin: t0 + 300, TS: t0 + 1500},
		{PID: 7, MID: 1, Ver: 1, Stage: telemetry.StageNF, Name: "ids", Begin: t0 + 1500, TS: t0 + 4500},
		{PID: 7, MID: 1, Ver: 1, Stage: telemetry.StageNF, Name: "monitor", Begin: t0 + 4500, TS: t0 + 6000},
		{PID: 7, MID: 1, Ver: 1, Stage: telemetry.StageOutput, Begin: t0 + 6000, TS: t0 + 6200},
		// pid 9: two branches, one on a copy, joined and output.
		{PID: 9, MID: 2, Ver: 1, Stage: telemetry.StageClassify, Name: "classifier", Begin: t0 + 7000, TS: t0 + 7400},
		{PID: 9, MID: 2, Ver: 2, Stage: telemetry.StageCopy, SrcVer: 1, Begin: t0 + 7400, TS: t0 + 7900},
		{PID: 9, MID: 2, Ver: 1, Stage: telemetry.StageRingWait, Begin: t0 + 7400, TS: t0 + 8000},
		{PID: 9, MID: 2, Ver: 2, Stage: telemetry.StageRingWait, Begin: t0 + 7900, TS: t0 + 8200},
		{PID: 9, MID: 2, Ver: 1, Stage: telemetry.StageNF, Name: "monitor", Begin: t0 + 8000, TS: t0 + 9500},
		{PID: 9, MID: 2, Ver: 2, Stage: telemetry.StageNF, Name: "lb", Begin: t0 + 8200, TS: t0 + 11200},
		{PID: 9, MID: 2, Ver: 1, Stage: telemetry.StageMergeWait, Join: 1, Begin: t0 + 9500, TS: t0 + 11400},
		{PID: 9, MID: 2, Ver: 2, Stage: telemetry.StageMergeWait, Join: 1, Begin: t0 + 11200, TS: t0 + 11400},
		{PID: 9, MID: 2, Ver: 1, Stage: telemetry.StageMerge, Join: 1, Begin: t0 + 11400, TS: t0 + 11900},
		{PID: 9, MID: 2, Ver: 1, Stage: telemetry.StageOutput, Begin: t0 + 11900, TS: t0 + 12000},
		// pid 12: dropped by the firewall.
		{PID: 12, MID: 1, Ver: 1, Stage: telemetry.StageClassify, Name: "classifier", Begin: t0 + 13000, TS: t0 + 13300},
		{PID: 12, MID: 1, Ver: 1, Stage: telemetry.StageRingWait, Begin: t0 + 13300, TS: t0 + 13800},
		{PID: 12, MID: 1, Ver: 1, Stage: telemetry.StageNF, Name: "firewall", Begin: t0 + 13800, TS: t0 + 14600},
		{PID: 12, MID: 1, Ver: 1, Stage: telemetry.StageDrop, Begin: t0 + 14600, TS: t0 + 14700},
	} {
		tr.RecordSpan(ev)
	}

	spool := t.TempDir()
	rec := flightrec.NewRecorder(flightrec.Config{Shards: 2})
	snap, err := flightrec.NewSnapshotter(flightrec.SnapConfig{
		Dir: spool, MinInterval: time.Millisecond, Recorder: rec, Registry: reg,
		Build: map[string]string{"version": "golden", "shards": "2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.SetOnIncident(func(reason string) { snap.Trigger(reason) })
	fw, mon := rec.Intern("firewall"), rec.Intern("monitor")
	// Shard 0's events first, so ordering by timestamp keeps the
	// recording order whatever the clock's resolution. A run's repeats
	// sleep first so its last timestamp always differs from its first.
	rec.Record(0, flightrec.Record{Kind: flightrec.KindInstall, Gen: 1, Detail: rec.Intern("initial install")})
	for i := 0; i < 7; i++ {
		if i > 0 {
			time.Sleep(time.Millisecond)
		}
		rec.Record(0, flightrec.Record{
			Kind: flightrec.KindDrop, Cause: flightrec.CauseNFVerdict, Stage: uint8(telemetry.StageNF),
			Gen: 1, Node: fw, Count: 1, PID: uint64(12 + i), Cursor: 800,
			Flow: packet.FlowKey{
				Src: [4]byte{10, 0, 0, 1}, Dst: [4]byte{10, 9, 0, 1},
				SrcPort: 4000, DstPort: 80, Proto: 6,
			},
			HasFlow: true,
		})
	}
	rec.Record(0, flightrec.Record{Kind: flightrec.KindBackpressure, Gen: 1, Node: mon, Count: 1})
	time.Sleep(time.Millisecond)
	rec.Record(1, flightrec.Record{Kind: flightrec.KindRestart, Gen: 1, Node: mon})
	for i := 0; i < 3; i++ {
		time.Sleep(time.Millisecond)
		rec.Record(1, flightrec.Record{
			Kind: flightrec.KindDrop, Cause: flightrec.CausePanic, Stage: uint8(telemetry.StageRingWait),
			Gen: 1, Node: mon, Count: 1, PID: uint64(40 + i),
		})
	}
	time.Sleep(time.Millisecond)
	rec.Record(1, flightrec.Record{Kind: flightrec.KindPanic, Gen: 1, Node: mon})
	snap.Stop() // flush the panic's bundle into the spool

	extra := diag.Handlers()
	extra["/debug/flightrecorder"] = flightrec.Handler(rec, reg, snap, map[string]string{"version": "golden", "shards": "2"})
	extra["/debug/config"] = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_ = json.NewEncoder(w).Encode(dataplane.ConfigInfo{
			Generation: 2, Reloads: 1, Shards: 2, Injected: 400, Outputs: 390, Drops: 10,
			History: []dataplane.GenerationInfo{
				{Generation: 1, MID: 1, Hash: "00000000deadbeef"},
				{Generation: 2, MID: 1, Hash: "00000000feedface", SwappedNS: 1_700_000_000_000_000_000, DrainNS: 1_250_000, Drained: 17},
			},
		})
	})
	web := httptest.NewServer(telemetry.Handler(reg, tr, extra))
	t.Cleanup(web.Close)
	return fixture{web: web, spool: spool}
}

// volatile matches what a clock decides: uptimes, window lengths,
// event and bundle timestamps in every rendering.
var volatile = []struct {
	re   *regexp.Regexp
	with string
}{
	{regexp.MustCompile(`"(uptime_seconds|window_seconds)": [0-9.e+-]+`), `"$1": 0`},
	{regexp.MustCompile(`"(ts_ns|last_ts_ns)": [0-9]+`), `"$1": 0`},
	{regexp.MustCompile(`incident-[0-9]+-`), `incident-0-`},
	{regexp.MustCompile(`[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}(Z|[+-][0-9]{2}:[0-9]{2})`), `YYYY-MM-DDThh:mm:ssZ`},
	{regexp.MustCompile(`[0-9]{2}:[0-9]{2}:[0-9]{2}\.[0-9]{3}`), `hh:mm:ss.mmm`},
	{regexp.MustCompile(`\(window [0-9.]+s,`), `(window 0.0s,`},
}

// normalize replaces every clock reading and the spool's temporary
// path with a fixed token.
func (f fixture) normalize(s string) string {
	s = strings.ReplaceAll(s, f.spool, "SPOOL")
	for _, v := range volatile {
		s = v.re.ReplaceAllString(s, v.with)
	}
	return s
}

// checkGolden compares got with testdata/golden/name, or rewrites the
// file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (rerun with -update to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s differs from its golden file (rerun with -update to accept):\n--- got\n%s\n--- want\n%s", name, got, want)
	}
}

// testGoldens pins every endpoint a server serves and every reader's
// rendering of it, text and -json, against the fixture.
func testGoldens(t *testing.T) {
	f := serveFixture(t)
	addr := f.web.Listener.Addr().String()
	for name, path := range map[string]string{
		"metrics.prom":        "/metrics",
		"telemetry.json":      "/debug/telemetry",
		"spans.json":          "/debug/spans",
		"spans.chrome.json":   "/debug/spans?format=chrome",
		"criticalpath.json":   "/debug/criticalpath",
		"flightrecorder.json": "/debug/flightrecorder",
		"health.json":         "/debug/health",
		"topflows.json":       "/debug/topflows",
		"config.json":         "/debug/config",
	} {
		t.Run(name, func(t *testing.T) {
			resp, err := http.Get(f.web.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, name, f.normalize(string(raw)))
		})
	}
	for _, tc := range []struct {
		cmd  string
		args []string
	}{
		{"metrics", nil},
		{"trace", []string{"-max", "0"}},
		{"criticalpath", nil},
		{"health", nil},
		{"top", []string{"-n", "4"}},
		{"config", nil},
		{"incident", nil},
	} {
		t.Run(tc.cmd, func(t *testing.T) {
			args := append([]string{"-addr", addr}, tc.args...)
			checkGolden(t, "nfpinspect_"+tc.cmd+".txt", f.normalize(stdout(t, readers[tc.cmd], args...)))
			checkGolden(t, "nfpinspect_"+tc.cmd+".json", f.normalize(stdout(t, readers[tc.cmd], append(args, "-json")...)))
		})
	}
}
