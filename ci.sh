#!/usr/bin/env sh
# CI entry point: build, vet, and race-test the whole module.
# Mirrors .github/workflows/ci.yml so the gate is reproducible locally.
#
#   ./ci.sh        — the blocking gate (build + vet + race tests, plus
#                    staticcheck when it is on PATH). The race tests
#                    include the new-flow storm against the per-flow
#                    state tables at a scaled-down ceiling (seconds);
#                    the storm against the real 2^20 ceiling runs in a
#                    plain `go test ./...` and is skipped under -race
#                    and -short.
#   ./ci.sh bench  — the repo benchmark (BENCHMARK.json): every
#                    workload, end-to-end and per-layer metrics, through
#                    `go run ./bench -seed 1`; the artifact is
#                    bench/out/result.json. Timing, so it never gates.
#                    bench_test.go's paper-figure benchmarks stay
#                    runnable by hand (`go test -bench . .`).
#   ./ci.sh incident — the flight-recorder smoke: boots nfpd with an
#                    injected NF panic and an incident spool, asserts
#                    /debug/flightrecorder reports a balanced drop
#                    ledger (sum over causes == total drops), a
#                    cause=panic count, and a parseable incident
#                    bundle; exercises nfpinspect incident against the
#                    live server and the spool. Set SPOOL_DIR to keep
#                    the spool (CI uploads it as an artifact on failure).
#                    `./ci.sh incident 20` runs it 20 times in a row and
#                    stops at the first failure (the flake check).
#   ./ci.sh fuzz   — the non-blocking fuzz smoke: each native fuzz
#                    target gets a short -fuzztime budget (override with
#                    FUZZ_TIME) on top of its checked-in seed corpus.
#   ./ci.sh trace  — the non-blocking span-tooling smoke: builds
#                    nfpinspect and runs the trace and criticalpath
#                    subcommands against an in-process chain, including
#                    a Chrome trace export (schema is gated by the
#                    golden test in the blocking job).
#   ./ci.sh diagnose — the diagnosis smoke: boots nfpd with live
#                    traffic and the diagnosis layer on, curls
#                    /debug/health and /debug/topflows, asserts the
#                    JSON is well-formed and health left "unknown",
#                    exercises nfpinspect health/top/metrics against
#                    the live server, then reports the _Diagnose
#                    benchmark's observability tax (non-gating).
#   ./ci.sh reload — the zero-downtime reconfiguration smoke: boots
#                    nfpd -reload under live traffic, SIGHUPs it twice
#                    mid-run, polls /debug/config until each new config
#                    generation goes live, then asserts conservation
#                    (injected == outputs + drops, zero pool buffers
#                    held) and a complete generation history. Also
#                    exercises nfpinspect config.
#   ./ci.sh twostage — the sequential-joins smoke: runs the chain the
#                    compiler lowers to two parallel stages in a row,
#                    [l3fwd || lb] -> [monitor || firewall], through
#                    nfpd for a million packets under ten seeds, with
#                    the default shard count and with one shard, each
#                    under a 60 s timeout. nfpd exits non-zero on a leak
#                    and the timeout catches a wedge (the shape stopped
#                    for good before admission bounded what a packet can
#                    occupy inside the graph, DESIGN.md §6).
#   ./ci.sh benchcheck — the repo benchmark's correctness check: runs
#                    the five frozen BENCHMARK.json workloads through
#                    `go run ./bench -check`, which holds each against
#                    the sequential reference (per-flow output digests
#                    and drop counts). No timing, so it gates.
set -eux

if [ "${1:-}" = "benchcheck" ]; then
    go run ./bench -check
    exit 0
fi

if [ "${1:-}" = "twostage" ]; then
    bin="$(mktemp -d)"
    trap 'rm -rf "$bin"' EXIT
    go build -o "$bin/nfpd" ./cmd/nfpd
    for seed in $(seq 1 10); do
        timeout 60 "$bin/nfpd" -chain l3fwd,lb,monitor,firewall -packets 1000000 -seed "$seed" >/dev/null
        timeout 60 "$bin/nfpd" -chain l3fwd,lb,monitor,firewall -packets 1000000 -seed "$seed" -shards 1 >/dev/null
    done
    exit 0
fi

if [ "${1:-}" = "trace" ]; then
    bin="$(mktemp -d)"
    trap 'rm -rf "$bin"' EXIT
    go build -o "$bin/nfpinspect" ./cmd/nfpinspect
    "$bin/nfpinspect" trace -chain ids,monitor,lb -packets 500 -max 3
    "$bin/nfpinspect" trace -chain ids,monitor,lb -packets 500 -chrome "$bin/trace.json" -max 0 >/dev/null
    test -s "$bin/trace.json"
    "$bin/nfpinspect" criticalpath -chain ids,monitor,lb -packets 500
    exit 0
fi

if [ "${1:-}" = "diagnose" ]; then
    bin="$(mktemp -d)"
    log="$bin/nfpd.log"
    pid=""
    trap '[ -n "$pid" ] && kill "$pid" 2>/dev/null; rm -rf "$bin"' EXIT
    go build -o "$bin/nfpd" ./cmd/nfpd
    go build -o "$bin/nfpinspect" ./cmd/nfpinspect
    # A Zipf-skewed run large enough to span several sampling windows;
    # -telemetry-addr keeps the server up after the traffic drains.
    "$bin/nfpd" -chain ids,monitor,lb -packets 200000 -seed 42 -zipf 1.4 \
        -telemetry-addr 127.0.0.1:0 -diagnose-interval 50ms -slo-p99 50ms \
        >"$log" 2>&1 &
    pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr="$(sed -n 's|^telemetry: *http://\([^/]*\)/metrics.*|\1|p' "$log")"
        [ -n "$addr" ] && break
        kill -0 "$pid" 2>/dev/null || { cat "$log"; exit 1; }
        sleep 0.1
    done
    [ -n "$addr" ] || { cat "$log"; exit 1; }
    sleep 1 # let the sampler close a few windows over the live run
    curl -fsS "http://$addr/debug/health" > "$bin/health.json"
    curl -fsS "http://$addr/debug/topflows" > "$bin/topflows.json"
    python3 - "$bin/health.json" "$bin/topflows.json" <<'EOF'
import json, sys
health = json.load(open(sys.argv[1]))
top = json.load(open(sys.argv[2]))
assert health["state"] in ("ok", "degraded", "overloaded"), health
assert health["samples"] >= 2, health
assert health.get("bottlenecks"), "no NFs ranked"
assert top["k"] > 0 and top["total_pkts"] > 0, top
assert top["flows"], "no flows tracked"
print("health:", health["state"],
      "| top flow share: %.1f%%" % (100 * top["flows"][0]["pkts"] / top["total_pkts"]))
EOF
    "$bin/nfpinspect" health -addr "$addr"
    "$bin/nfpinspect" top -addr "$addr" -n 5
    "$bin/nfpinspect" metrics -addr "$addr" >/dev/null
    kill "$pid" && wait "$pid" || { cat "$log"; exit 1; }
    pid=""
    # Non-gating: the diagnosis layer's tax on the tracked Burst32
    # benchmark (sketch + e2e sampling + background sampler).
    go test -run '^$' -bench 'Fig7_NFP_SeqChain5_Burst32(_Diagnose)?$' \
        -benchtime "${BENCH_TIME:-1s}" . | awk '
        $1 ~ /^BenchmarkFig7_NFP_SeqChain5_Burst32(-[0-9]+)?$/ { base = $3 }
        $1 ~ /^BenchmarkFig7_NFP_SeqChain5_Burst32_Diagnose(-[0-9]+)?$/ { diag = $3 }
        END {
            if (base > 0 && diag > 0)
                printf "diagnosis tax: %.1f -> %.1f ns/op (%+.1f%%; non-gating)\n", \
                    base, diag, 100 * (diag - base) / base
        }
    '
    exit 0
fi

if [ "${1:-}" = "reload" ]; then
    bin="$(mktemp -d)"
    log="$bin/nfpd.log"
    pid=""
    trap '[ -n "$pid" ] && kill "$pid" 2>/dev/null; rm -rf "$bin"' EXIT
    go build -o "$bin/nfpd" ./cmd/nfpd
    go build -o "$bin/nfpinspect" ./cmd/nfpinspect
    # A run long enough that both SIGHUPs land while traffic is still
    # flowing (the vpn chain is deliberately slow); -telemetry-addr
    # keeps the server queryable after the traffic drains.
    "$bin/nfpd" -chain vpn,monitor,firewall,lb -packets 2000000 -seed 7 \
        -shards 2 -reload -telemetry-addr 127.0.0.1:0 >"$log" 2>&1 &
    pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr="$(sed -n 's|^telemetry: *http://\([^/]*\)/metrics.*|\1|p' "$log")"
        [ -n "$addr" ] && break
        kill -0 "$pid" 2>/dev/null || { cat "$log"; exit 1; }
        sleep 0.1
    done
    [ -n "$addr" ] || { cat "$log"; exit 1; }
    # hup_to_gen: SIGHUP the daemon, then poll /debug/config until the
    # wanted generation is live — the swap is asynchronous to the
    # signal, the endpoint is the ground truth.
    hup_to_gen() {
        kill -HUP "$pid"
        for _ in $(seq 1 150); do
            gen="$(curl -fsS "http://$addr/debug/config" | python3 -c 'import json,sys; print(json.load(sys.stdin)["generation"])' 2>/dev/null || echo 0)"
            [ "$gen" = "$1" ] && return 0
            kill -0 "$pid" 2>/dev/null || { cat "$log"; return 1; }
            sleep 0.1
        done
        echo "generation never reached $1 (got $gen)"; cat "$log"; return 1
    }
    hup_to_gen 2
    hup_to_gen 3
    # Wait for the traffic run to finish (nfpd prints its summary, then
    # keeps serving), so the conservation check sees the final counts.
    for _ in $(seq 1 600); do
        grep -q 'config gen:' "$log" && break
        kill -0 "$pid" 2>/dev/null || { cat "$log"; exit 1; }
        sleep 0.5
    done
    curl -fsS "http://$addr/debug/config" > "$bin/config.json"
    python3 - "$bin/config.json" <<'EOF'
import json, sys
ci = json.load(open(sys.argv[1]))
assert ci["generation"] == 3, ci
assert ci["reloads"] == 2, ci
assert ci["injected"] == 2000000, ci
assert ci["injected"] == ci["outputs"] + ci["drops"], \
    "conservation violated across reloads: %r" % ci
assert ci["pool_in_use"] == 0, "buffers leaked across reloads: %r" % ci
hist = ci["history"]
assert [g["generation"] for g in hist] == [1, 2, 3], hist
assert all(g["swapped_ns"] > 0 for g in hist[1:]), hist
assert len({g["compile_hash"] for g in hist}) == 1, \
    "same policy must compile to the same hash: %r" % hist
print("reload smoke: gen %d, %d reloads, %d pkts conserved, drains %s" %
      (ci["generation"], ci["reloads"], ci["injected"],
       ["%.1fms" % (g["drain_ns"] / 1e6) for g in hist[1:]]))
EOF
    "$bin/nfpinspect" config -addr "$addr"
    "$bin/nfpinspect" config -addr "$addr" -json >/dev/null
    kill "$pid" && wait "$pid" || true
    pid=""
    exit 0
fi

if [ "${1:-}" = "incident" ] && [ "${2:-1}" -gt 1 ]; then
    for run in $(seq 1 "$2"); do
        "$0" incident || { echo "incident smoke failed on run $run of $2"; exit 1; }
    done
    echo "incident smoke passed $2 consecutive runs"
    exit 0
fi

if [ "${1:-}" = "incident" ]; then
    bin="$(mktemp -d)"
    log="$bin/nfpd.log"
    spool="${SPOOL_DIR:-$bin/spool}"
    pid=""
    trap '[ -n "$pid" ] && kill "$pid" 2>/dev/null; rm -rf "$bin"' EXIT
    go build -o "$bin/nfpd" ./cmd/nfpd
    go build -o "$bin/nfpinspect" ./cmd/nfpinspect
    # Inject a deterministic NF panic mid-run: the monitor dies on its
    # 5000th packet, the supervisor restarts it, and the flight
    # recorder must spool an incident bundle for the panic while the
    # ledger stays balanced. -telemetry-addr keeps the server
    # queryable after the traffic drains.
    "$bin/nfpd" -chain ids,monitor,lb -packets 300000 -seed 42 \
        -panic-nf monitor@5000 -flight-spool "$spool" -flight-interval 1s \
        -telemetry-addr 127.0.0.1:0 >"$log" 2>&1 &
    pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr="$(sed -n 's|^telemetry: *http://\([^/]*\)/metrics.*|\1|p' "$log")"
        [ -n "$addr" ] && break
        kill -0 "$pid" 2>/dev/null || { cat "$log"; exit 1; }
        sleep 0.1
    done
    [ -n "$addr" ] || { cat "$log"; exit 1; }
    # Wait for the traffic run to finish (nfpd prints its summary, then
    # keeps serving) so every in-flight drop has resolved terminally —
    # the conservation audit wants the final counts.
    for _ in $(seq 1 600); do
        grep -q 'outputs/drops:' "$log" && break
        kill -0 "$pid" 2>/dev/null || { cat "$log"; exit 1; }
        sleep 0.5
    done
    curl -fsS "http://$addr/debug/flightrecorder" > "$bin/status.json"
    python3 - "$bin/status.json" <<'EOF'
import json, sys
st = json.load(open(sys.argv[1]))
assert st["ledger_ok"], "drop ledger broken: %s" % st.get("ledger_error")
led = st["ledger"]
assert led["by_cause"].get("panic", 0) > 0, "injected panic not attributed: %r" % led
assert led["by_cause"].get("unknown", 0) == 0, "anonymous drops: %r" % led
assert st["incidents"], "panic produced no incident bundle"
assert st["bundles_written"] >= 1, st
assert any(e["kind"] == "panic" for e in st["events"]), \
    "event ring lost the panic: %r" % [e["kind"] for e in st["events"]]
print("flight recorder: %d drops (%s), %d bundle(s) spooled" % (
    led["total_drops"],
    " ".join("%s=%d" % kv for kv in sorted(led["by_cause"].items()) if kv[1]),
    st["bundles_written"]))
EOF
    # The newest spooled bundle must parse and carry the panic reason.
    newest="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["incidents"][-1]["file"])' "$bin/status.json")"
    curl -fsS "http://$addr/debug/flightrecorder?incident=$newest" > "$bin/bundle.json"
    python3 - "$bin/bundle.json" <<'EOF'
import json, sys
b = json.load(open(sys.argv[1]))
assert b["schema"] == 1, b["schema"]
assert b["reason"].startswith("panic:"), b["reason"]
assert b["build"], "bundle missing build info"
assert b["events"], "bundle missing event tail"
print("bundle %s: reason %s, %d events, %d metric counters" % (
    sys.argv[1].split("/")[-1], b["reason"], len(b["events"]),
    len(b.get("metrics", {}).get("counters", []))))
EOF
    # Path traversal must be rejected, not served.
    code="$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/debug/flightrecorder?incident=..%2Fnfpd.log")"
    [ "$code" = "400" ] || { echo "traversal got HTTP $code, want 400"; exit 1; }
    "$bin/nfpinspect" incident -addr "$addr"
    "$bin/nfpinspect" incident -addr "$addr" -json >/dev/null
    "$bin/nfpinspect" incident -spool "$spool"
    kill "$pid" && wait "$pid" || true
    pid=""
    exit 0
fi

if [ "${1:-}" = "fuzz" ]; then
    ft="${FUZZ_TIME:-10s}"
    # One -fuzz invocation per target: go test refuses to fuzz more
    # than one target (or package) at a time.
    go test -run '^$' -fuzz '^FuzzPolicyCompile$' -fuzztime "$ft" ./internal/core/
    go test -run '^$' -fuzz '^FuzzClassify$' -fuzztime "$ft" ./internal/dataplane/
    go test -run '^$' -fuzz '^FuzzAccumulatingTable$' -fuzztime "$ft" ./internal/dataplane/
    go test -run '^$' -fuzz '^FuzzRuleIndex$' -fuzztime "$ft" ./internal/ruleindex/
    go test -run '^$' -fuzz '^FuzzFlowTable$' -fuzztime "$ft" ./internal/flowtab/
    exit 0
fi

if [ "${1:-}" = "bench" ]; then
    go run ./bench -seed 1
    exit 0
fi

go build ./...
go vet ./...
# staticcheck is optional locally (no forced install); CI installs it.
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
fi
go test -race ./...
