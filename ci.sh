#!/usr/bin/env sh
# CI entry point: build, vet, and race-test the whole module.
# Mirrors .github/workflows/ci.yml so the gate is reproducible locally.
#
#   ./ci.sh        — the blocking gate (build + vet + race tests, plus
#                    staticcheck when it is on PATH)
#   ./ci.sh bench  — the non-blocking burst-regression job: runs the
#                    Burst1/Burst32 benchmark pairs with -benchmem and
#                    writes BENCH_burst.json for artifact upload.
#   ./ci.sh bench-compare — the non-blocking fusion-ablation job: runs
#                    the Burst1/Burst32 pairs plus their _NoFusion
#                    variants, writes BENCH_fusion.json, and prints a
#                    per-benchmark delta table against the previous
#                    BENCH_burst.json when one exists (fail-soft: a
#                    missing or malformed baseline only warns).
#   ./ci.sh bench-shard — the non-blocking shard-scaling job: runs the
#                    Fig7 fused Burst32 benchmark at 1/4/8 shards,
#                    writes BENCH_shard.json, and prints a 1->4->8
#                    scaling table with the achieved speedup next to
#                    the ideal (min(shards, cores)). Fail-soft: the
#                    table reports, it never gates — on a single-core
#                    runner the axis measures sharding overhead, not
#                    scaling, and the table says so.
#   ./ci.sh bench-flowcache — the non-blocking flow-fast-path job: runs
#                    the Classifier_Rules{16,256,4096} benchmarks with
#                    and without the microflow cache plus the cache-off
#                    variants of the tracked Fig7/Fig13 Burst32 rows,
#                    writes BENCH_flowcache.json, prints the
#                    Rules4096/Rules16 hit-path flatness ratio
#                    (expected ~1x cache-on: hits are O(1) regardless
#                    of table size) and a delta table for the Fig7 row
#                    against BENCH_fusion.json. Fail-soft: it reports,
#                    it never gates.
#   ./ci.sh incident — the flight-recorder smoke: boots nfpd with an
#                    injected NF panic and an incident spool, asserts
#                    /debug/flightrecorder reports a balanced drop
#                    ledger (sum over causes == total drops), a
#                    cause=panic count, and a parseable incident
#                    bundle; exercises nfpinspect incident against the
#                    live server and the spool; then reports the
#                    recorder's tax on the tracked Burst32 benchmark
#                    into a fail-soft BENCH_flightrec.json. Set
#                    SPOOL_DIR to keep the spool (CI uploads it as an
#                    artifact on failure).
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
#                    exercises nfpinspect config and writes a fail-soft
#                    BENCH_reload.json with the e2e p99 measured across
#                    the swaps.
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
    # Fail-soft artifact: the e2e p99 measured over a run that spanned
    # two live swaps (the reload latency-tax headline number).
    curl -fsS "http://$addr/debug/telemetry" > "$bin/telemetry.json" || true
    python3 - "$bin/telemetry.json" "$bin/config.json" > "${BENCH_OUT:-BENCH_reload.json}" <<'EOF' || echo "warning: BENCH_reload.json failed (non-gating)"
import json, sys
tel = json.load(open(sys.argv[1]))
ci = json.load(open(sys.argv[2]))
series = [h for h in tel.get("histograms", []) if h["name"] == "nfp_e2e_latency_ns"]
json.dump({
    "reloads": ci["reloads"],
    "injected": ci["injected"],
    "drain_ns": [g["drain_ns"] for g in ci["history"] if g.get("drain_ns")],
    "e2e_p99_ns_max": max((h["p99"] for h in series), default=0),
    "e2e_p99_ns_by_series": [
        {"labels": h.get("labels"), "p99_ns": h["p99"], "count": h["count"]}
        for h in series],
}, sys.stdout, indent=2)
print()
EOF
    echo "wrote ${BENCH_OUT:-BENCH_reload.json}"
    kill "$pid" && wait "$pid" || true
    pid=""
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
        -drop-sample 8 -telemetry-addr 127.0.0.1:0 >"$log" 2>&1 &
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
    # Fail-soft artifact: the flight recorder's tax on the tracked
    # Burst32 benchmark (provenance counters + ring vs ablation).
    raw="$bin/bench.txt"
    go test -run '^$' -bench 'Fig7_NFP_SeqChain5_Burst32(_NoFlightRec)?$' \
        -benchtime "${BENCH_TIME:-1s}" . | tee "$raw" || true
    awk '
        $1 ~ /^BenchmarkFig7_NFP_SeqChain5_Burst32(-[0-9]+)?$/ { on = $3 }
        $1 ~ /^BenchmarkFig7_NFP_SeqChain5_Burst32_NoFlightRec(-[0-9]+)?$/ { off = $3 }
        END {
            if (on > 0 && off > 0) {
                printf "{\n \"recorder_on_ns_per_op\": %s,\n \"recorder_off_ns_per_op\": %s,\n \"overhead_pct\": %.2f\n}\n", \
                    on, off, 100 * (on - off) / off
                printf "flight recorder tax: %.1f -> %.1f ns/op (%+.1f%%; non-gating)\n", \
                    off, on, 100 * (on - off) / off > "/dev/stderr"
            }
        }
    ' "$raw" > "${BENCH_OUT:-BENCH_flightrec.json}" || echo "warning: BENCH_flightrec.json failed (non-gating)"
    echo "wrote ${BENCH_OUT:-BENCH_flightrec.json}"
    exit 0
fi

if [ "${1:-}" = "fuzz" ]; then
    ft="${FUZZ_TIME:-10s}"
    # One -fuzz invocation per target: go test refuses to fuzz more
    # than one target (or package) at a time.
    go test -run '^$' -fuzz '^FuzzPolicyCompile$' -fuzztime "$ft" ./internal/core/
    go test -run '^$' -fuzz '^FuzzClassify$' -fuzztime "$ft" ./internal/dataplane/
    exit 0
fi

if [ "${1:-}" = "bench" ]; then
    out="${BENCH_OUT:-BENCH_burst.json}"
    raw="$(mktemp)"
    trap 'rm -f "$raw"' EXIT
    go test -run '^$' -bench 'Burst(1|32)$' -benchmem -benchtime="${BENCH_TIME:-1s}" . | tee "$raw"
    awk '
        BEGIN { print "[" }
        /^Benchmark/ {
            name = $1; sub(/-[0-9]+$/, "", name)
            ns = $3; bytes = $5; allocs = $7
            pps = (ns > 0) ? 1e9 / ns : 0
            if (n++) printf ",\n"
            printf "  {\"name\": \"%s\", \"ns_per_op\": %s, \"pkts_per_sec\": %.0f, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
                name, ns, pps, bytes, allocs
        }
        END { printf "\n]\n" }
    ' "$raw" > "$out"
    echo "wrote $out"
    exit 0
fi

if [ "${1:-}" = "bench-shard" ]; then
    out="${BENCH_OUT:-BENCH_shard.json}"
    raw="$(mktemp)"
    trap 'rm -f "$raw"' EXIT
    go test -run '^$' -bench 'Fig7_NFP_SeqChain5_Burst32_Shard(1|4|8)$' \
        -benchmem -benchtime="${BENCH_TIME:-1s}" . | tee "$raw"
    cores="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
    [ -n "$cores" ] || cores=1
    awk -v cores="$cores" '
        BEGIN { print "[" }
        /^Benchmark/ {
            name = $1; sub(/-[0-9]+$/, "", name)
            ns = $3; bytes = $5; allocs = $7
            pps = (ns > 0) ? 1e9 / ns : 0
            shards = name; sub(/^.*_Shard/, "", shards)
            if (n++) printf ",\n"
            printf "  {\"name\": \"%s\", \"shards\": %s, \"cores\": %s, \"ns_per_op\": %s, \"pkts_per_sec\": %.0f, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
                name, shards, cores, ns, pps, bytes, allocs
        }
        END { printf "\n]\n" }
    ' "$raw" > "$out"
    echo "wrote $out"
    # Scaling table vs the Shard1 row of the same run. Fail-soft by
    # design: this job reports, it never gates — the >= 3x expectation
    # for Shard4 only applies on a >= 4-core runner.
    awk -v cores="$cores" '
        /^Benchmark.*_Shard[0-9]+(-[0-9]+)?[ \t]/ {
            name = $1; sub(/-[0-9]+$/, "", name)
            shards = name; sub(/^.*_Shard/, "", shards)
            ns[shards] = $3 + 0
            order[cnt++] = shards
        }
        END {
            if (!(1 in ns) || ns[1] <= 0) { print "warning: no Shard1 baseline in run"; exit }
            printf "shard scaling (%d core(s) visible to the runtime):\n", cores
            for (i = 0; i < cnt; i++) {
                k = order[i]
                ideal = (k + 0 < cores + 0) ? k : cores
                printf "  Shard%-3s %10.1f ns/op  %12.0f pps  speedup %5.2fx (ideal %dx)\n", \
                    k, ns[k], 1e9 / ns[k], ns[1] / ns[k], ideal
            }
            if (cores + 0 < 4)
                print "  note: fewer than 4 cores — this run measures sharding overhead, not scaling"
        }
    ' "$raw" || echo "warning: scaling table failed"
    exit 0
fi

if [ "${1:-}" = "bench-flowcache" ]; then
    out="${BENCH_OUT:-BENCH_flowcache.json}"
    base="${BENCH_BASELINE:-BENCH_fusion.json}"
    raw="$(mktemp)"
    trap 'rm -f "$raw"' EXIT
    go test -run '^$' \
        -bench 'Classifier_Rules(16|256|4096)(_NoFlowCache)?$|Fig7_NFP_SeqChain5_Burst32(_NoFlowCache)?$|Fig13_NorthSouth_Burst32(_NoFlowCache)?$' \
        -benchmem -benchtime="${BENCH_TIME:-1s}" . | tee "$raw"
    awk '
        BEGIN { print "[" }
        /^Benchmark/ {
            name = $1; sub(/-[0-9]+$/, "", name)
            ns = $3; bytes = $5; allocs = $7
            pps = (ns > 0) ? 1e9 / ns : 0
            if (n++) printf ",\n"
            printf "  {\"name\": \"%s\", \"ns_per_op\": %s, \"pkts_per_sec\": %.0f, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
                name, ns, pps, bytes, allocs
        }
        END { printf "\n]\n" }
    ' "$raw" > "$out"
    echo "wrote $out"
    # Hit-path flatness: cache-on ns/op must not grow with the rule
    # table (every steady-state packet is an exact-match hit), while
    # the _NoFlowCache rows show the linear walk the cache bypasses.
    # Fail-soft by design: this job reports, it never gates.
    awk '
        /^BenchmarkClassifier_Rules[0-9]+(-[0-9]+)?[ \t]/ {
            name = $1; sub(/-[0-9]+$/, "", name)
            rules = name; sub(/^.*_Rules/, "", rules)
            on[rules] = $3 + 0
        }
        /^BenchmarkClassifier_Rules[0-9]+_NoFlowCache(-[0-9]+)?[ \t]/ {
            name = $1; sub(/-[0-9]+$/, "", name)
            rules = name; sub(/^.*_Rules/, "", rules); sub(/_NoFlowCache$/, "", rules)
            off[rules] = $3 + 0
        }
        END {
            print "flow-cache hit-path flatness (ns/op per packet):"
            n = split("16 256 4096", sizes, " ")
            for (i = 1; i <= n; i++) {
                r = sizes[i]
                if (!(r in on)) continue
                spd = (r in off && on[r] > 0) ? off[r] / on[r] : 0
                printf "  Rules%-5s cache-on %8.1f  cache-off %10.1f  speedup %7.2fx\n", r, on[r], off[r], spd
            }
            if (on[16] > 0 && on[4096] > 0) {
                ratio = on[4096] / on[16]
                printf "  Rules4096/Rules16 cache-on ratio: %.2fx (flat hit path wants ~1x, criterion <= 1.25x)\n", ratio
            } else {
                print "  warning: missing Rules16/Rules4096 cache-on rows"
            }
        }
    ' "$raw" || echo "warning: flatness table failed"
    # Tracked-row tax: the cache must be invisible on the default-route
    # Fig7/Fig13 paths (empty rule table bypasses it entirely).
    if [ -f "$base" ]; then
        awk -v base="$base" '
            NR == FNR {
                if (match($0, /"name": "[^"]+"/)) {
                    name = substr($0, RSTART + 9, RLENGTH - 10)
                    if (match($0, /"ns_per_op": [0-9.]+/))
                        prev[name] = substr($0, RSTART + 13, RLENGTH - 13)
                }
                next
            }
            /^BenchmarkFig/ {
                name = $1; sub(/-[0-9]+$/, "", name)
                key = name; sub(/_NoFlowCache$/, "", key)
                ns = $3 + 0
                if (key in prev && prev[key] > 0) {
                    delta = 100 * (ns - prev[key]) / prev[key]
                    printf "%-52s %10.1f ns/op  baseline %10.1f  delta %+7.1f%%\n", name, ns, prev[key], delta
                } else {
                    printf "%-52s %10.1f ns/op  (no baseline)\n", name, ns
                }
            }
        ' "$base" "$raw" || echo "warning: delta table failed (malformed $base?)"
    else
        echo "warning: no baseline $base — skipping delta table"
    fi
    exit 0
fi

if [ "${1:-}" = "bench-compare" ]; then
    out="${BENCH_OUT:-BENCH_fusion.json}"
    base="${BENCH_BASELINE:-BENCH_burst.json}"
    raw="$(mktemp)"
    trap 'rm -f "$raw"' EXIT
    go test -run '^$' -bench 'Burst(1|32)(_NoFusion)?$' -benchmem -benchtime="${BENCH_TIME:-1s}" . | tee "$raw"
    awk '
        BEGIN { print "[" }
        /^Benchmark/ {
            name = $1; sub(/-[0-9]+$/, "", name)
            ns = $3; bytes = $5; allocs = $7
            pps = (ns > 0) ? 1e9 / ns : 0
            if (n++) printf ",\n"
            printf "  {\"name\": \"%s\", \"ns_per_op\": %s, \"pkts_per_sec\": %.0f, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
                name, ns, pps, bytes, allocs
        }
        END { printf "\n]\n" }
    ' "$raw" > "$out"
    echo "wrote $out"
    # Delta table vs the previous burst-suite JSON. _NoFusion rows
    # compare against the unsuffixed baseline name, so the fusion-off
    # engine is expected near 0% and the fused rows show the win.
    # Fail-soft by design: this job reports, it never gates.
    if [ -f "$base" ]; then
        awk -v base="$base" '
            NR == FNR {
                if (match($0, /"name": "[^"]+"/)) {
                    name = substr($0, RSTART + 9, RLENGTH - 10)
                    if (match($0, /"ns_per_op": [0-9.]+/))
                        prev[name] = substr($0, RSTART + 13, RLENGTH - 13)
                }
                next
            }
            /^Benchmark/ {
                name = $1; sub(/-[0-9]+$/, "", name)
                key = name; sub(/_NoFusion$/, "", key)
                ns = $3 + 0
                if (key in prev && prev[key] > 0) {
                    delta = 100 * (ns - prev[key]) / prev[key]
                    printf "%-48s %10.1f ns/op  baseline %10.1f  delta %+7.1f%%\n", name, ns, prev[key], delta
                } else {
                    printf "%-48s %10.1f ns/op  (no baseline)\n", name, ns
                }
            }
        ' "$base" "$raw" || echo "warning: delta table failed (malformed $base?)"
    else
        echo "warning: no baseline $base — skipping delta table"
    fi
    exit 0
fi

go build ./...
go vet ./...
# staticcheck is optional locally (no forced install); CI installs it.
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
fi
go test -race ./...
