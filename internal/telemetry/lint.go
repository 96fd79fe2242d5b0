package telemetry

import (
	"fmt"
	"regexp"
)

var (
	lintName  = regexp.MustCompile(`^nfp_[a-z0-9_]+$`)
	lintLabel = regexp.MustCompile(`^[a-z_][a-z0-9_]*$`)
)

// LintNames checks a snapshot against the repo's metric-name
// conventions and returns one finding per violation (empty = clean):
//
//   - every series name matches ^nfp_[a-z0-9_]+(_total)?$,
//   - counters end in _total; gauges and histograms do not,
//   - label keys are lower_snake_case identifiers,
//   - no two series share the same name+labels (duplicate
//     registration; impossible from one Registry, but snapshots can
//     be merged or hand-built).
//
// A test in every metric-producing package can assert len == 0, so a
// misnamed series fails the build instead of shipping.
func LintNames(s Snapshot) []string {
	var findings []string
	seen := make(map[string]bool)
	check := func(kind, name string, labels map[string]string, wantTotal bool) {
		if !lintName.MatchString(name) {
			findings = append(findings, fmt.Sprintf("%s %s: name must match ^nfp_[a-z0-9_]+$", kind, name))
		}
		hasTotal := len(name) > len("_total") && name[len(name)-len("_total"):] == "_total"
		if wantTotal && !hasTotal {
			findings = append(findings, fmt.Sprintf("%s %s: counter names must end in _total", kind, name))
		}
		if !wantTotal && hasTotal {
			findings = append(findings, fmt.Sprintf("%s %s: only counters may end in _total", kind, name))
		}
		for k := range labels {
			if !lintLabel.MatchString(k) {
				findings = append(findings, fmt.Sprintf("%s %s: label key %q must be lower_snake_case", kind, name, k))
			}
		}
		series := SeriesKey(name, labels)
		if seen[kind+" "+series] {
			findings = append(findings, fmt.Sprintf("%s %s: duplicate series %s", kind, name, series))
		}
		seen[kind+" "+series] = true
	}
	for _, c := range s.Counters {
		check("counter", c.Name, c.Labels, true)
	}
	for _, g := range s.Gauges {
		check("gauge", g.Name, g.Labels, false)
	}
	for _, h := range s.Histograms {
		check("histogram", h.Name, h.Labels, false)
	}
	return findings
}
