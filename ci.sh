#!/usr/bin/env sh
# CI entry point: build, vet, and race-test the whole module.
# Mirrors .github/workflows/ci.yml so the gate is reproducible locally.
#
#   ./ci.sh        — the blocking gate (build + vet + race tests, plus
#                    staticcheck when it is on PATH). Race builds map
#                    no memory: the packet pool's frame slab and the
#                    per-flow tables' big slabs stay on the heap there.
#                    So the packages that own or use the mappings —
#                    internal/offheap, mempool, flowtab and nf — run
#                    their tests once more without -race, on the
#                    mappings every other build uses: the frame slab,
#                    the flow tables' huge-page slabs, their unmapping,
#                    and the new-flow storm against the real 2^20
#                    ceiling with its resident-memory bound (the race
#                    run takes the storm at a scaled-down ceiling, and
#                    -short skips the full one). Then every benchmark under internal/
#                    runs once (-benchtime 1x, untimed): several carry
#                    checks of their own — zero allocations per op or
#                    burst, the shared FIB, BenchmarkServerSetup's
#                    set-up allocations that do not grow with the
#                    pool — that gate only when a benchmark body runs.
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
#                    Targets: policy compile, copy-group share safety
#                    (no compiled copy group holds a pair the compiler's
#                    share test forbids), rule index, flow table,
#                    signature matcher, the LPM table (against a
#                    linear-scan longest match),
#                    the VPN (Process then Decap restores the frame,
#                    IPv4 options included; one flipped bit makes Decap
#                    fail), the packet parser and header-only copy, the
#                    header splice (InsertAt/RemoveAt at any headroom
#                    equal a naive copy-based splice), the packet builder
#                    (equals a re-sum and a parse of the frame it
#                    wrote), the tuple setters (equal a byte-by-byte
#                    rewrite and re-sum) and the policy-language parser.
#   ./ci.sh diagnose — the diagnosis smoke: boots nfpd with live
#                    traffic and the diagnosis layer on, curls
#                    /debug/health and /debug/topflows, asserts the
#                    JSON is well-formed and health left "unknown",
#                    exercises nfpinspect health, top, metrics (table
#                    and -json), trace (tree and a Chrome trace export,
#                    whose schema a golden test gates in the blocking
#                    job) and criticalpath against the live server, then
#                    reports the _Diagnose benchmark's observability tax
#                    (non-gating).
#   ./ci.sh reload — the zero-downtime reconfiguration smoke: boots
#                    nfpd -reload under live traffic, SIGHUPs it twice
#                    mid-run, polls /debug/config until each new config
#                    generation goes live, then asserts conservation
#                    (injected == outputs + drops, zero pool buffers
#                    held), a complete generation history, and as
#                    many nfp_nf_* series on /metrics at generation 3
#                    as at generation 2. Also exercises nfpinspect
#                    config.
#   ./ci.sh twostage — the sequential-joins smoke: runs the checked-in
#                    policy cmd/nfpcompile/testdata/twostage.pol, whose
#                    two Priority rules keep two parallel stages in a
#                    row at any NF cost, [lb || l3fwd] -> [firewall ||
#                    monitor] (a plain chain of these light NFs would
#                    compile to a chain). It fails unless nfpcompile
#                    reports two parallel stages, then runs the policy
#                    through nfpd for a million packets under ten seeds,
#                    with the default shard count and with one shard,
#                    and at -burst 1 under seeds 1–3 the same two ways,
#                    each under a 60 s timeout. nfpd exits non-zero on a
#                    leak and the timeout catches a wedge (the shape
#                    stopped for good before admission bounded what a
#                    packet can occupy inside the graph, DESIGN.md §6).
#   ./ci.sh benchcheck — the repo benchmark's correctness check: runs
#                    the five frozen BENCHMARK.json workloads through
#                    `go run ./bench -check`, which holds each against
#                    the sequential reference (per-flow output digests
#                    and drop counts). No timing, so it gates.
set -eux

# boot_nfpd ARGS...: start "$bin/nfpd" ARGS serving telemetry on a free
# local port, with its output in "$log"; set pid, and addr to the
# address it prints. Exits (showing the log) if nfpd dies or never
# prints one. nfpinspect reads that address.
boot_nfpd() {
    "$bin/nfpd" "$@" -telemetry-addr 127.0.0.1:0 >"$log" 2>&1 &
    pid=$!
    for _ in $(seq 1 100); do
        addr="$(sed -n 's|^telemetry: *http://\([^/]*\)/metrics.*|\1|p' "$log")"
        [ -n "$addr" ] && return 0
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.1
    done
    cat "$log"
    exit 1
}

if [ "${1:-}" = "benchcheck" ]; then
    go run ./bench -check
    exit 0
fi

if [ "${1:-}" = "twostage" ]; then
    bin="$(mktemp -d)"
    trap 'rm -rf "$bin"' EXIT
    pol=cmd/nfpcompile/testdata/twostage.pol
    go build -o "$bin/nfpd" ./cmd/nfpd
    go build -o "$bin/nfpcompile" ./cmd/nfpcompile
    stages="$("$bin/nfpcompile" -policy "$pol" | grep -c '^  \[.*  parallel  ' || true)"
    if [ "$stages" -lt 2 ]; then
        echo "twostage: $pol compiles to $stages parallel stages, want 2" >&2
        exit 1
    fi
    for seed in $(seq 1 10); do
        timeout 60 "$bin/nfpd" -policy "$pol" -packets 1000000 -seed "$seed" >/dev/null
        timeout 60 "$bin/nfpd" -policy "$pol" -packets 1000000 -seed "$seed" -shards 1 >/dev/null
    done
    # At burst 1 every tail completes its join on its own, and a
    # completed first stage pushes straight into the second stage from
    # the goroutine that completed it.
    for seed in $(seq 1 3); do
        timeout 60 "$bin/nfpd" -policy "$pol" -packets 1000000 -seed "$seed" -burst 1 >/dev/null
        timeout 60 "$bin/nfpd" -policy "$pol" -packets 1000000 -seed "$seed" -burst 1 -shards 1 >/dev/null
    done
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
    # nfpd keeps serving telemetry after the traffic drains.
    boot_nfpd -chain ids,monitor,lb -packets 200000 -seed 42 -zipf 1.4 \
        -diagnose-interval 50ms -slo-p99 50ms
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
    "$bin/nfpinspect" metrics -addr "$addr" -json >/dev/null
    "$bin/nfpinspect" trace -addr "$addr" -max 3
    "$bin/nfpinspect" trace -addr "$addr" -chrome "$bin/trace.json" -max 0 >/dev/null
    test -s "$bin/trace.json"
    "$bin/nfpinspect" criticalpath -addr "$addr"
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
    # flowing (the vpn chain is deliberately slow); nfpd keeps the
    # server queryable after the traffic drains.
    boot_nfpd -chain vpn,monitor,firewall,lb -packets 2000000 -seed 7 \
        -shards 2 -reload
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
    # A reload continues its graph's series: the per-NF series on
    # /metrics must not grow from one generation to the next.
    nf_series() { curl -fsS "http://$addr/metrics" | grep -c '^nfp_nf_'; }
    hup_to_gen 2
    series2="$(nf_series)"
    hup_to_gen 3
    series3="$(nf_series)"
    [ "$series2" = "$series3" ] || {
        echo "nfp_nf_* series grew across a reload: $series2 at gen 2, $series3 at gen 3"; exit 1; }
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
    # ledger stays balanced. nfpd keeps the server queryable after the
    # traffic drains.
    boot_nfpd -chain ids,monitor,lb -packets 300000 -seed 42 \
        -panic-nf monitor@5000 -flight-spool "$spool" -flight-interval 1s
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
    go test -run '^$' -fuzz '^FuzzCompileShareSafety$' -fuzztime "$ft" ./internal/core/
    go test -run '^$' -fuzz '^FuzzRuleIndex$' -fuzztime "$ft" ./internal/ruleindex/
    go test -run '^$' -fuzz '^FuzzFlowTable$' -fuzztime "$ft" ./internal/flowtab/
    go test -run '^$' -fuzz '^FuzzMatch$' -fuzztime "$ft" ./internal/ahocorasick/
    go test -run '^$' -fuzz '^FuzzLPM$' -fuzztime "$ft" ./internal/lpm/
    go test -run '^$' -fuzz '^FuzzVPN$' -fuzztime "$ft" ./internal/nf/
    go test -run '^$' -fuzz '^FuzzParse$' -fuzztime "$ft" ./internal/packet/
    go test -run '^$' -fuzz '^FuzzHeaderOnlyCopy$' -fuzztime "$ft" ./internal/packet/
    go test -run '^$' -fuzz '^FuzzSplice$' -fuzztime "$ft" ./internal/packet/
    go test -run '^$' -fuzz '^FuzzBuildInto$' -fuzztime "$ft" ./internal/packet/
    go test -run '^$' -fuzz '^FuzzSetTuple$' -fuzztime "$ft" ./internal/packet/
    go test -run '^$' -fuzz '^FuzzParse$' -fuzztime "$ft" ./internal/policy/
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
go test ./internal/offheap/ ./internal/mempool/ ./internal/flowtab/ ./internal/nf/
go test -run '^$' -bench . -benchtime 1x ./internal/...
