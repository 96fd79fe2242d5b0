package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"time"
)

// promName sanitizes a metric name for the Prometheus text format.
func promName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			return r
		}
		return '_'
	}, s)
}

// promLabels renders a label map (plus extras) as {k="v",...}.
func promLabels(labels map[string]string, extra ...Label) string {
	if len(labels) == 0 && len(extra) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for _, k := range keys {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%s=%q", promName(k), labels[k])
	}
	for _, l := range extra {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%s=%q", promName(l.Key), l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format, with every family's samples grouped under one TYPE line as
// the format requires. Histograms emit as summaries (quantile series
// plus _sum and _count), which keeps the hot-path histogram's log
// buckets an internal detail.
func (s Snapshot) WritePrometheus(w io.Writer) {
	type family struct {
		kind  string
		lines []string
	}
	var order []string
	families := map[string]*family{}
	add := func(name, kind, line string) {
		f := families[name]
		if f == nil {
			f = &family{kind: kind}
			families[name] = f
			order = append(order, name)
		}
		f.lines = append(f.lines, line)
	}
	for _, c := range s.Counters {
		name := promName(c.Name)
		add(name, "counter", fmt.Sprintf("%s%s %d", name, promLabels(c.Labels), c.Value))
	}
	for _, g := range s.Gauges {
		name := promName(g.Name)
		add(name, "gauge", fmt.Sprintf("%s%s %d", name, promLabels(g.Labels), g.Value))
	}
	for _, h := range s.Histograms {
		name := promName(h.Name)
		for _, q := range []struct {
			q string
			v uint64
		}{{"0.5", h.P50}, {"0.95", h.P95}, {"0.99", h.P99}} {
			add(name, "summary", fmt.Sprintf("%s%s %d", name, promLabels(h.Labels, L("quantile", q.q)), q.v))
		}
		add(name, "summary", fmt.Sprintf("%s_sum%s %d", name, promLabels(h.Labels), h.Sum))
		add(name, "summary", fmt.Sprintf("%s_count%s %d", name, promLabels(h.Labels), h.Count))
	}
	for _, name := range order {
		f := families[name]
		fmt.Fprintf(w, "# TYPE %s %s\n", name, f.kind)
		for _, line := range f.lines {
			fmt.Fprintln(w, line)
		}
	}
}

// Dump is the /debug/telemetry JSON document: the full metric snapshot,
// stamped with the serving process's uptime so scrapes are
// self-describing. Spans are served by /debug/spans alone.
type Dump struct {
	UptimeSeconds float64  `json:"uptime_seconds"`
	Metrics       Snapshot `json:"metrics"`
}

// SpansDump is the /debug/spans JSON document: per-packet span groups
// plus the count of packets whose trace head was evicted.
type SpansDump struct {
	TruncatedPIDs int                     `json:"truncated_pids"`
	Spans         map[uint64][]TraceEvent `json:"spans"`
}

// Handler serves the introspection endpoints:
//
//	/metrics             Prometheus text format
//	/debug/telemetry     JSON Dump (uptime + metric snapshot)
//	/debug/spans         per-PID span groups (?format=chrome for the
//	                     Chrome trace-event JSON export)
//	/debug/criticalpath  per-MID latency attribution + parallel speedup
//	/debug/pprof/...     the standard Go profiles (always mounted)
//
// plus caller-supplied endpoints (pattern → handler), the hook
// subsystems layered above telemetry (diagnosis, the flight recorder,
// the config view) use to join the same introspection server. Extra
// patterns must not collide with the built-in ones. reg, tr and extra
// may be nil (empty sections).
func Handler(reg *Registry, tr *Tracer, extra map[string]http.Handler) http.Handler {
	start := time.Now()
	mux := http.NewServeMux()
	for pattern, h := range extra {
		mux.Handle(pattern, h)
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.Snapshot().WritePrometheus(w)
	})
	mux.HandleFunc("/debug/telemetry", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(Dump{
			UptimeSeconds: time.Since(start).Seconds(),
			Metrics:       reg.Snapshot(),
		})
	})
	mux.HandleFunc("/debug/spans", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Query().Get("format") == "chrome" {
			_ = WriteChromeTrace(w, tr.Events())
			return
		}
		spans, truncated := tr.GroupByPID()
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(SpansDump{TruncatedPIDs: truncated, Spans: spans})
	})
	mux.HandleFunc("/debug/criticalpath", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(BuildCriticalPathReport(tr.Events()))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve binds addr and serves Handler(reg, tr, extra) in a background
// goroutine. It returns the server (for Close/Shutdown) and the bound
// address — so ":0" callers learn their port. Errors after binding are
// the server's to log; binding errors return immediately.
func Serve(addr string, reg *Registry, tr *Tracer, extra map[string]http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: Handler(reg, tr, extra)}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String(), nil
}
