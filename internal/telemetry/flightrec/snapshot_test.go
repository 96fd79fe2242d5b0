package flightrec

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nfp/internal/telemetry"
)

// testSnapshotter builds a Snapshotter over a temp spool with a tiny
// rate-limit window, a recorder and a registry.
func testSnapshotter(t *testing.T, cfg SnapConfig) *Snapshotter {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	s, err := NewSnapshotter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s
}

// TestSnapshotterWriteAndRead round-trips one bundle through the
// spool: schema, reason, ledger, events, sources, goroutines, build.
func TestSnapshotterWriteAndRead(t *testing.T) {
	rec := NewRecorder(Config{})
	rec.Record(0, Record{Kind: KindPanic, Node: rec.Intern("ids")})
	reg := telemetry.NewRegistry()
	reg.Counter(MetricDrops).Add(2)
	reg.Counter(MetricDrops, telemetry.L("cause", "panic"), telemetry.L("nf", "ids")).Add(2)
	s := testSnapshotter(t, SnapConfig{
		Recorder: rec, Registry: reg,
		Build:      map[string]string{"version": "test"},
		Goroutines: true,
		Sources: []Source{
			{Name: "config", Collect: func() any { return map[string]int{"gen": 3} }},
			{Name: "absent", Collect: func() any { return nil }},
		},
	})
	path, err := s.WriteBundle("panic:ids")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Schema != BundleSchema || b.Reason != "panic:ids" || b.TSNS == 0 {
		t.Fatalf("bundle header: %+v", b)
	}
	if b.Build["version"] != "test" {
		t.Fatalf("build info lost: %v", b.Build)
	}
	if b.Ledger.TotalDrops != 2 || b.Ledger.ByCause["panic"] != 2 {
		t.Fatalf("bundle ledger: %+v", b.Ledger)
	}
	if len(b.Events) != 1 || b.Events[0].Kind != "panic" {
		t.Fatalf("bundle events: %+v", b.Events)
	}
	var cfg map[string]int
	if err := json.Unmarshal(b.Sources["config"], &cfg); err != nil || cfg["gen"] != 3 {
		t.Fatalf("config source: %s (%v)", b.Sources["config"], err)
	}
	if _, ok := b.Sources["absent"]; ok {
		t.Fatal("nil-returning source must be omitted")
	}
	if !strings.Contains(b.Goroutines, "goroutine") {
		t.Fatal("goroutine dump missing")
	}
	if b.Metrics == nil || len(b.Metrics.Counters) == 0 {
		t.Fatal("metrics snapshot missing")
	}

	entries, err := ListSpool(s.Dir())
	if err != nil || len(entries) != 1 {
		t.Fatalf("spool list: %v, %v", entries, err)
	}
	// The file name holds the sanitised reason; the listing shows the
	// bundle's own.
	e := entries[0]
	if e.File != filepath.Base(path) || e.Reason != "panic:ids" || e.TSNS != b.TSNS || e.Size == 0 {
		t.Fatalf("spool entry: %+v", e)
	}
}

// TestSnapshotterRateLimit: triggers inside the window are suppressed,
// not spooled; WriteBundle bypasses the limiter.
func TestSnapshotterRateLimit(t *testing.T) {
	s := testSnapshotter(t, SnapConfig{MinInterval: time.Hour})
	if !s.Trigger("first") {
		t.Fatal("first trigger must pass")
	}
	if s.Trigger("second") {
		t.Fatal("second trigger inside the window must be suppressed")
	}
	if _, err := s.WriteBundle("explicit"); err != nil {
		t.Fatal(err)
	}
	s.Stop() // flush the queued first trigger
	written, suppressed := s.Stats()
	if written != 2 || suppressed != 1 {
		t.Fatalf("written=%d suppressed=%d, want 2/1", written, suppressed)
	}
	entries, _ := ListSpool(s.Dir())
	if len(entries) != 2 {
		t.Fatalf("spool has %d bundles, want 2", len(entries))
	}
}

// TestSnapshotterPrune: the spool keeps only the newest maxBundles.
func TestSnapshotterPrune(t *testing.T) {
	s := testSnapshotter(t, SnapConfig{})
	const written = maxBundles + 2
	for i := 0; i < written; i++ {
		if _, err := s.WriteBundle(fmt.Sprintf("r%d", i)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond) // distinct spool timestamps
	}
	entries, err := ListSpool(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != maxBundles {
		t.Fatalf("spool has %d bundles after prune, want %d", len(entries), maxBundles)
	}
	for i, e := range entries {
		if want := fmt.Sprintf("r%d", written-maxBundles+i); e.Reason != want {
			t.Fatalf("prune kept %q at %d, want %q (newest must survive)", e.Reason, i, want)
		}
	}
}

// TestSnapshotterNilSafe: nil receiver no-ops everywhere.
func TestSnapshotterNilSafe(t *testing.T) {
	var s *Snapshotter
	if s.Trigger("x") {
		t.Fatal("nil Trigger must be false")
	}
	if w, sup := s.Stats(); w != 0 || sup != 0 {
		t.Fatal("nil Stats must be zero")
	}
	if s.Dir() != "" {
		t.Fatal("nil Dir must be empty")
	}
	s.Stop()
}

// TestSnapshotterRequiresDir: no spool dir is a construction error,
// not a silent no-op.
func TestSnapshotterRequiresDir(t *testing.T) {
	if _, err := NewSnapshotter(SnapConfig{}); err == nil {
		t.Fatal("empty Dir must fail")
	}
}

// TestReadBundleErrors: missing file, malformed JSON, and a schema
// from the future all fail loudly.
func TestReadBundleErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadBundle(filepath.Join(dir, "nope.json")); err == nil {
		t.Fatal("missing bundle must fail")
	}
	trunc := filepath.Join(dir, "incident-1-x.json")
	if err := os.WriteFile(trunc, []byte(`{"schema":1,"reason":"x"`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBundle(trunc); err == nil || !strings.Contains(err.Error(), "incident-1-x.json") {
		t.Fatalf("truncated bundle: %v", err)
	}
	future := filepath.Join(dir, "incident-2-y.json")
	if err := os.WriteFile(future, []byte(`{"schema":99,"reason":"y"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBundle(future); err == nil || !strings.Contains(err.Error(), "schema 99") {
		t.Fatalf("schema mismatch: %v", err)
	}
}

// TestListSpoolEdgeCases: a missing dir is an empty spool; foreign
// files are ignored; entries sort oldest first by timestamp.
func TestListSpoolEdgeCases(t *testing.T) {
	entries, err := ListSpool(filepath.Join(t.TempDir(), "missing"))
	if err != nil || entries != nil {
		t.Fatalf("missing dir: %v, %v", entries, err)
	}
	dir := t.TempDir()
	for _, name := range []string{"notes.txt", "incident-bad", "incident-20-b.json", "incident-10-a.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	entries, err = ListSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Reason != "a" || entries[1].Reason != "b" {
		t.Fatalf("spool listing: %+v", entries)
	}
}

// TestSanitizeReason: spool filenames stay shell-safe whatever the
// trigger reason contains.
func TestSanitizeReason(t *testing.T) {
	cases := map[string]string{
		"panic:ids":     "panic_ids",
		"health-> bad!": "health-__bad_",
		"":              "incident",
	}
	for in, want := range cases {
		if got := sanitizeReason(in); got != want {
			t.Fatalf("sanitizeReason(%q) = %q, want %q", in, got, want)
		}
	}
	if got := sanitizeReason(strings.Repeat("x", 100)); len(got) > 48 {
		t.Fatalf("sanitized reason too long: %d", len(got))
	}
}
