package experiments

import (
	"bytes"
	"strconv"
	"testing"

	"nfp/internal/core"
	"nfp/internal/dataplane"
	"nfp/internal/graph"
	"nfp/internal/nfa"
	"nfp/internal/packet"
	"nfp/internal/policy"
	"nfp/internal/trafficgen"
)

// TestRunTrafficBurstKeepsOutputs builds servers the way nfpd does —
// New, AddGraph, Start, then RunTraffic — and checks that the server
// reports the settings it was built with and that the injection burst
// RunTraffic takes from Config.Burst changes how packets enter, never
// what comes out.
func TestRunTrafficBurstKeepsOutputs(t *testing.T) {
	res, err := core.Compile(policy.FromChain(nfa.NFIDS, nfa.NFMonitor, nfa.NFLB), nfa.LookupCostFree, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if graph.MaxDegree(res.Graph) < 2 {
		t.Fatalf("%v has no join to exercise", res.Graph)
	}
	run := func(cfg dataplane.Config) map[uint64][]byte {
		t.Helper()
		cfg.PoolSize = 1024 * cfg.Shards
		srv := dataplane.New(cfg)
		if err := srv.AddGraph(1, res.Graph); err != nil {
			t.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		bi := srv.BuildInfo()
		for k, want := range map[string]string{
			"burst": strconv.Itoa(cfg.Burst), "shards": strconv.Itoa(cfg.Shards),
			"fusion": cfg.Fusion.String(),
		} {
			if bi[k] != want {
				t.Errorf("BuildInfo[%q] = %q, want %q", k, bi[k], want)
			}
		}
		if srv.Shards() != cfg.Shards {
			t.Errorf("Shards() = %d, want %d", srv.Shards(), cfg.Shards)
		}
		byPID := map[uint64][]byte{}
		gen := trafficgen.New(trafficgen.Config{Flows: 16, Seed: 11, Sizes: trafficgen.Fixed(128)})
		live, err := RunTraffic(srv, srv.InjectBatch, 500, cfg.Burst, gen, func(p *packet.Packet) {
			byPID[p.Meta.PID] = append([]byte(nil), p.Bytes()...)
		})
		if err != nil {
			t.Fatal(err)
		}
		if st := srv.Stats(); st.Outputs+st.Drops != 500 || live.PoolLeak != 0 {
			t.Fatalf("outputs %d + drops %d of 500, pool leak %d", st.Outputs, st.Drops, live.PoolLeak)
		}
		return byPID
	}

	run(dataplane.Config{Burst: 8, Shards: 2, Fusion: dataplane.FusionOff})
	one := run(dataplane.Config{Burst: 1, Shards: 1})
	many := run(dataplane.Config{Burst: 32, Shards: 1})
	if len(one) == 0 || len(one) != len(many) {
		t.Fatalf("Burst 1 kept %d outputs, Burst 32 kept %d", len(one), len(many))
	}
	for pid, b := range one {
		if !bytes.Equal(b, many[pid]) {
			t.Fatalf("PID %d differs between Burst 1 and Burst 32", pid)
		}
	}
}
