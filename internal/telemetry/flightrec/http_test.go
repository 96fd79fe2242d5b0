package flightrec

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"nfp/internal/telemetry"
)

func getJSON(t *testing.T, h http.Handler, url string, into any) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if into != nil && w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), into); err != nil {
			t.Fatalf("GET %s: %v\n%s", url, err, w.Body.String())
		}
	}
	return w
}

// TestHandlerStatus: the status report carries the ledger verdict, the
// event tail, the spool index and the build info.
func TestHandlerStatus(t *testing.T) {
	rec := NewRecorder(Config{})
	rec.Record(0, Record{Kind: KindInstall, Gen: 1})
	reg := telemetry.NewRegistry()
	reg.Counter(MetricDrops).Add(1)
	reg.Counter(MetricDrops, telemetry.L("cause", "nf_verdict")).Add(1)
	sn := testSnapshotter(t, SnapConfig{Recorder: rec, Registry: reg, MinInterval: time.Hour})
	if _, err := sn.WriteBundle("panic:x"); err != nil {
		t.Fatal(err)
	}
	h := Handler(rec, reg, sn, map[string]string{"version": "t"})

	var st Status
	if w := getJSON(t, h, "/debug/flightrecorder", &st); w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	if !st.LedgerOK || st.Ledger.TotalDrops != 1 {
		t.Fatalf("ledger: %+v (err %q)", st.Ledger, st.LedgerErr)
	}
	if st.SpoolDir != sn.Dir() || st.Written != 1 || len(st.Incidents) != 1 {
		t.Fatalf("spool section: %+v", st)
	}
	if len(st.Events) != 1 || st.Events[0].Kind != "install" {
		t.Fatalf("events: %+v", st.Events)
	}
	if st.Build["version"] != "t" {
		t.Fatalf("build: %v", st.Build)
	}

	// A broken ledger flips the verdict but still serves.
	reg.Counter(MetricDrops).Add(5)
	st = Status{}
	getJSON(t, h, "/debug/flightrecorder", &st)
	if st.LedgerOK || st.LedgerErr == "" {
		t.Fatalf("broken ledger not reported: %+v", st)
	}

	// ?n caps the event tail.
	rec.Record(0, Record{Kind: KindRestart})
	st = Status{}
	getJSON(t, h, "/debug/flightrecorder?n=1", &st)
	if len(st.Events) != 1 {
		t.Fatalf("?n=1 returned %d events", len(st.Events))
	}
}

// TestHandlerIncident: the ?incident path serves exactly bare
// incident-*.json basenames from the spool — nothing else.
func TestHandlerIncident(t *testing.T) {
	rec := NewRecorder(Config{})
	sn := testSnapshotter(t, SnapConfig{Recorder: rec, MinInterval: time.Hour})
	path, err := sn.WriteBundle("panic:x")
	if err != nil {
		t.Fatal(err)
	}
	h := Handler(rec, nil, sn, nil)

	entries, _ := ListSpool(sn.Dir())
	var b Bundle
	if w := getJSON(t, h, "/debug/flightrecorder?incident="+entries[0].File, &b); w.Code != http.StatusOK {
		t.Fatalf("serve bundle = %d", w.Code)
	}
	if b.Schema != BundleSchema || b.Reason != "panic:x" {
		t.Fatalf("served bundle: %+v", b)
	}
	_ = path

	for _, bad := range []string{
		"..%2F..%2Fetc%2Fpasswd",
		"incident-1-x.txt",
		"x.json",
		"sub%2Fincident-1-x.json",
	} {
		if w := getJSON(t, h, "/debug/flightrecorder?incident="+bad, nil); w.Code != http.StatusBadRequest {
			t.Fatalf("incident=%s = %d, want 400", bad, w.Code)
		}
	}
	if w := getJSON(t, h, "/debug/flightrecorder?incident=incident-1-missing.json", nil); w.Code != http.StatusNotFound {
		t.Fatalf("missing bundle = %d, want 404", w.Code)
	}
}

// TestHandlerNilSections: every collaborator may be nil — the status
// endpoint still answers and the incident path 404s without a spool.
func TestHandlerNilSections(t *testing.T) {
	h := Handler(nil, nil, nil, nil)
	var st Status
	if w := getJSON(t, h, "/debug/flightrecorder", &st); w.Code != http.StatusOK {
		t.Fatalf("nil-sections status = %d", w.Code)
	}
	if st.SpoolDir != "" || len(st.Events) != 0 || st.LedgerOK {
		t.Fatalf("nil-sections report: %+v", st)
	}
	if w := getJSON(t, h, "/debug/flightrecorder?incident=incident-1-x.json", nil); w.Code != http.StatusNotFound {
		t.Fatalf("no-spool incident = %d, want 404", w.Code)
	}
}
