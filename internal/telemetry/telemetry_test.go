package telemetry

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	c := NewCounter()
	const goroutines, perG = 16, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
}

func TestGaugeSetMax(t *testing.T) {
	g := NewGauge()
	g.Set(10)
	g.SetMax(5)
	if g.Value() != 10 {
		t.Errorf("SetMax lowered the gauge to %d", g.Value())
	}
	g.SetMax(42)
	if g.Value() != 42 {
		t.Errorf("SetMax did not raise the gauge: %d", g.Value())
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(v int64) {
			defer wg.Done()
			for j := int64(0); j < 1000; j++ {
				g.SetMax(v * j)
			}
		}(int64(i + 1))
	}
	wg.Wait()
	if g.Value() != 8*999 {
		t.Errorf("concurrent SetMax = %d, want %d", g.Value(), 8*999)
	}
}

func TestNilSafety(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var r *Registry
	var tr *Tracer
	c.Add(1)
	c.Inc()
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	g.Set(1)
	g.Add(1)
	g.SetMax(1)
	if g.Value() != 0 {
		t.Error("nil gauge has a value")
	}
	h.Record(1)
	if h.Count() != 0 || h.Snapshot().Count != 0 {
		t.Error("nil histogram recorded")
	}
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Error("nil registry returned a metric")
	}
	r.MustRegisterCounter("x", NewCounter())
	if len(r.Snapshot().Counters) != 0 {
		t.Error("nil registry snapshot non-empty")
	}
	if tr.Sampled(1) {
		t.Error("nil tracer samples")
	}
	recordPoint(tr, 1, 1, StageNF, "x", 0)
	if g, _ := tr.GroupByPID(); tr.Events() != nil || g != nil {
		t.Error("nil tracer retained events")
	}
}

func TestRegistryIdentityAndLabels(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("hits", L("nf", "ids"))
	b := r.Counter("hits", L("nf", "ids"))
	if a != b {
		t.Error("same name+labels returned different counters")
	}
	// Label order must not split the series.
	c := r.Counter("multi", L("a", "1"), L("b", "2"))
	d := r.Counter("multi", L("b", "2"), L("a", "1"))
	if c != d {
		t.Error("label order split the series")
	}
	if r.Counter("hits", L("nf", "lb")) == a {
		t.Error("different labels shared a counter")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind change did not panic")
		}
	}()
	r.Gauge("hits", L("nf", "ids"))
}

func TestRegistryDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.MustRegisterCounter("pool_allocs", NewCounter())
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.MustRegisterCounter("pool_allocs", NewCounter())
}

func TestSnapshotAccessors(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", L("k", "v")).Add(7)
	r.Counter("c", L("k", "w")).Add(5)
	r.Gauge("g").Set(-3)
	r.Histogram("h").Record(1000)
	s := r.Snapshot()
	if got := s.CounterValue("c", L("k", "v")); got != 7 {
		t.Errorf("CounterValue = %d, want 7", got)
	}
	if got := s.SumCounters("c"); got != 12 {
		t.Errorf("SumCounters = %d, want 12", got)
	}
	if got := s.GaugeValue("g"); got != -3 {
		t.Errorf("GaugeValue = %d, want -3", got)
	}
	if len(s.Histograms) != 1 || s.Histograms[0].Count != 1 {
		t.Errorf("histogram snapshot missing: %+v", s.Histograms)
	}
}

func TestWritePrometheusGroupsFamilies(t *testing.T) {
	r := NewRegistry()
	// Interleave registrations of the same family to prove grouping.
	r.Counter("load", L("instance", "0")).Add(1)
	r.Counter("other").Add(1)
	r.Counter("load", L("instance", "1")).Add(2)
	r.Gauge("depth").Set(9)
	r.Histogram("svc_ns").Record(500)
	var sb strings.Builder
	r.Snapshot().WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE load counter",
		`load{instance="0"} 1`,
		`load{instance="1"} 2`,
		"# TYPE depth gauge",
		"depth 9",
		"# TYPE svc_ns summary",
		`svc_ns{quantile="0.5"}`,
		"svc_ns_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Family samples must be contiguous: both load series directly
	// follow the load TYPE line.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for i, line := range lines {
		if line == "# TYPE load counter" {
			if !strings.HasPrefix(lines[i+1], "load{") || !strings.HasPrefix(lines[i+2], "load{") {
				t.Errorf("load family not grouped:\n%s", out)
			}
		}
	}
}

func TestHTTPHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("nfp_injected_total").Add(42)
	tr := NewTracer(1, 16)
	recordPoint(tr, 7, 1, StageClassify, "classifier", 100)
	recordPoint(tr, 7, 1, StageOutput, "", 200)
	srv := httptest.NewServer(Handler(r, tr, nil))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.Contains(sb.String(), "nfp_injected_total 42") {
		t.Errorf("/metrics missing counter:\n%s", sb.String())
	}

	resp, err = srv.Client().Get(srv.URL + "/debug/telemetry")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var dump Dump
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Metrics.CounterValue("nfp_injected_total") != 42 {
		t.Error("JSON dump lost the counter")
	}
	if strings.Contains(string(raw), `"traces"`) {
		t.Errorf("JSON dump carries spans; /debug/spans serves them:\n%s", raw)
	}

	resp, err = srv.Client().Get(srv.URL + "/debug/spans")
	if err != nil {
		t.Fatal(err)
	}
	var spans SpansDump
	if err := json.NewDecoder(resp.Body).Decode(&spans); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hops := spans.Spans[7]; len(hops) != 2 || hops[0].Stage != StageClassify {
		t.Errorf("/debug/spans lost the trace: %+v", spans)
	}
}

// TestOnSnapshotPollsBeforeReading: what a hook sets is in the very
// snapshot that ran it, every snapshot runs every hook, and a nil
// registry takes the registration as the no-op everything else is.
func TestOnSnapshotPollsBeforeReading(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("nfp_polled")
	polls := int64(0)
	r.OnSnapshot(func() { polls++; g.Set(polls) })
	r.OnSnapshot(func() { r.Counter("nfp_polls_total").Inc() })
	for want := int64(1); want <= 3; want++ {
		s := r.Snapshot()
		if got := s.GaugeValue("nfp_polled"); got != want {
			t.Errorf("snapshot %d read the gauge as %d", want, got)
		}
		if got := s.CounterValue("nfp_polls_total"); got != uint64(want) {
			t.Errorf("snapshot %d: second hook ran %d times", want, got)
		}
	}
	var none *Registry
	none.OnSnapshot(func() { t.Error("hook of a nil registry ran") })
	none.Snapshot()
}
