package diagnose

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// defaultTopN caps /debug/topflows output when no ?n= is given.
const defaultTopN = 20

// Handlers returns the diagnosis endpoints, keyed by pattern, in the
// shape telemetry.Serve/Handler accept as extra endpoints:
//
//	/debug/health    the HealthReport JSON document
//	/debug/topflows  the TopFlowsReport JSON document (?n=limit)
func (d *Diagnoser) Handlers() map[string]http.Handler {
	return map[string]http.Handler{
		"/debug/health": http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(d.Report())
		}),
		"/debug/topflows": http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			n := defaultTopN
			if q := r.URL.Query().Get("n"); q != "" {
				if v, err := strconv.Atoi(q); err == nil && v > 0 {
					n = v
				}
			}
			var rep TopFlowsReport
			if d.cfg.TopK != nil {
				rep = d.cfg.TopK.Top(n)
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(rep)
		}),
	}
}
