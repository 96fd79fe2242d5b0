package experiments

import (
	"bytes"
	"testing"

	"nfp/internal/core"
	"nfp/internal/dataplane"
	"nfp/internal/graph"
	"nfp/internal/nfa"
	"nfp/internal/policy"
	"nfp/internal/trafficgen"
)

// TestLiveOptionsConfigPassThrough: the harness hands LiveOptions.Config
// to the server as is — the settings a caller chose are the settings
// the server reports — and the injection burst it derives from
// Config.Burst changes how packets enter, never what comes out.
func TestLiveOptionsConfigPassThrough(t *testing.T) {
	res, err := core.Compile(policy.FromChain(nfa.NFIDS, nfa.NFMonitor, nfa.NFLB), nfa.LookupCostFree, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if graph.MaxDegree(res.Graph) < 2 {
		t.Fatalf("%v has no join to exercise", res.Graph)
	}
	run := func(cfg dataplane.Config, onServer func(*dataplane.Server)) LiveResult {
		t.Helper()
		gen := trafficgen.New(trafficgen.Config{Flows: 16, Seed: 11, Sizes: trafficgen.Fixed(128)})
		live, err := RunLiveGraphOpts(res.Graph, 500, gen, LiveOptions{Config: cfg, KeepOutputs: true, OnServer: onServer})
		if err != nil {
			t.Fatal(err)
		}
		if live.Outputs+live.Drops != 500 || live.PoolLeak != 0 {
			t.Fatalf("outputs %d + drops %d of 500, pool leak %d", live.Outputs, live.Drops, live.PoolLeak)
		}
		return live
	}

	seen := false
	run(dataplane.Config{Burst: 8, Shards: 2, Fusion: dataplane.FusionOff},
		func(s *dataplane.Server) {
			seen = true
			bi := s.BuildInfo()
			for k, want := range map[string]string{
				"burst": "8", "shards": "2",
				"fusion": dataplane.FusionOff.String(),
			} {
				if bi[k] != want {
					t.Errorf("BuildInfo[%q] = %q, want %q", k, bi[k], want)
				}
			}
			if s.Shards() != 2 {
				t.Errorf("Shards() = %d, want 2", s.Shards())
			}
		})
	if !seen {
		t.Fatal("OnServer never ran")
	}

	one := run(dataplane.Config{Burst: 1}, nil).OutputsByPID
	many := run(dataplane.Config{Burst: 32}, nil).OutputsByPID
	if len(one) == 0 || len(one) != len(many) {
		t.Fatalf("Burst 1 kept %d outputs, Burst 32 kept %d", len(one), len(many))
	}
	for pid, b := range one {
		if !bytes.Equal(b, many[pid]) {
			t.Fatalf("PID %d differs between Burst 1 and Burst 32", pid)
		}
	}
}
