#!/usr/bin/env bash
# Full verification sweep: configure, build (warnings as errors), run
# the test suite and the benchmark's correctness gates, replay a
# pinned chaos plan (fault injection), soak
# the service under syscall-level fault injection (pvar_chaos), run
# the thread-pool/protocol tests under ThreadSanitizer, the
# service/store tests under AddressSanitizer and the numeric core
# under UndefinedBehaviorSanitizer, and execute every bench binary's
# shape checks (bench_speed_gates holds the two timing floors; all
# other performance numbers come from perf/).
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja -DPVAR_WERROR=ON
cmake --build build
ctest --test-dir build --output-on-failure -j"$(nproc)"

# Benchmark correctness gates: the perf/ harness's --smoke runs check
# every workload's outputs (store cold == warm == uncached bytes, an
# all-hit warm pass, the seed-0 golden, service bodies equal to
# handle()) on seconds-long inputs, without printing timings.
cmake -S perf -B build-perf -G Ninja -DCMAKE_BUILD_TYPE=Release
cmake --build build-perf
ctest --test-dir build-perf --output-on-failure

# Spec-layer round trip: the registry serialized to a fleet file must
# run the study protocol end-to-end, as must the shipped example.
./build/pvar_study --list-devices >/dev/null
./build/pvar_study --fleet examples/custom_fleet.json \
    --iterations 1 --quiet >/dev/null

# Service smoke: start pvar_served on an ephemeral loopback port, hit
# every endpoint, prove POST /study answers byte-for-byte what the CLI
# prints, prove the second identical request was served from the
# cache, and shut down cleanly on SIGTERM.
service_smoke() {
    local served=$1 study=$2 tmp
    tmp=$(mktemp -d)
    "$served" --port 0 --port-file "$tmp/port" --iterations 1 \
        --quiet & local pid=$!
    for _ in $(seq 100); do [ -s "$tmp/port" ] && break; sleep 0.1; done
    local port; port=$(cat "$tmp/port")
    curl -sf "http://127.0.0.1:$port/healthz" >/dev/null
    curl -sf "http://127.0.0.1:$port/devices" >/dev/null
    curl -sf -X POST --data-binary @examples/custom_fleet.json \
        "http://127.0.0.1:$port/study" -o "$tmp/study1.json"
    curl -sf -X POST --data-binary @examples/custom_fleet.json \
        "http://127.0.0.1:$port/study" -o "$tmp/study2.json"
    "$study" --fleet examples/custom_fleet.json --iterations 1 \
        --json --quiet --output "$tmp/cli.json"
    cmp "$tmp/study1.json" "$tmp/cli.json"
    cmp "$tmp/study1.json" "$tmp/study2.json"
    curl -sf "http://127.0.0.1:$port/healthz" -o "$tmp/health.json"
    python3 - "$tmp/health.json" <<'EOF'
import json, sys
h = json.load(open(sys.argv[1]))
cache = h["cache"]
assert cache["hits"] >= cache["misses"] > 0, cache
EOF
    kill -TERM "$pid"
    wait "$pid"
    rm -rf "$tmp"
}
service_smoke ./build/pvar_served ./build/pvar_study

# Kill-recovery: SIGKILL pvar_served mid-study, restart it on the same
# --cache-dir, and prove (a) the repeated POST /study is byte-identical
# to the CLI, (b) it was served from the durable store (no
# recomputation), and (c) the log survived the crash intact (storectl
# verify re-reads every record through the checksummed path).
kill_recovery() {
    local served=$1 study=$2 storectl=$3 tmp
    tmp=$(mktemp -d)
    "$served" --port 0 --port-file "$tmp/port" --iterations 1 \
        --cache-dir "$tmp/store" --quiet & local pid=$!
    for _ in $(seq 100); do [ -s "$tmp/port" ] && break; sleep 0.1; done
    local port; port=$(cat "$tmp/port")
    # Warm the store with a completed study, then die mid-request: the
    # kill lands while the second (uncached) study is computing, so the
    # process goes down with the log open for appends.
    curl -sf -X POST --data-binary \
        '{"device": "SD-805:unit-b", "iterations": 1}' \
        "http://127.0.0.1:$port/study" -o "$tmp/before.json"
    curl -sf -X POST --data-binary @examples/custom_fleet.json \
        "http://127.0.0.1:$port/study" -o /dev/null &
    local curl_pid=$!
    sleep 0.3
    kill -KILL "$pid"
    wait "$pid" 2>/dev/null || true
    wait "$curl_pid" 2>/dev/null || true

    # 0 = clean; 2 = torn tail truncated at open, which is legitimate
    # SIGKILL recovery. 1 (undecodable surviving records) stays fatal.
    local rc=0
    "$storectl" verify --cache-dir "$tmp/store" --quiet || rc=$?
    [ "$rc" -eq 0 ] || [ "$rc" -eq 2 ]

    # Restart on the same directory: the repeated request must come
    # back byte-identical, answered from the store.
    "$served" --port 0 --port-file "$tmp/port2" --iterations 1 \
        --cache-dir "$tmp/store" --quiet & pid=$!
    for _ in $(seq 100); do [ -s "$tmp/port2" ] && break; sleep 0.1; done
    port=$(cat "$tmp/port2")
    curl -sf -X POST --data-binary \
        '{"device": "SD-805:unit-b", "iterations": 1}' \
        "http://127.0.0.1:$port/study" -o "$tmp/after.json"
    cmp "$tmp/before.json" "$tmp/after.json"
    "$study" --device SD-805:unit-b --iterations 1 --json --quiet \
        --output "$tmp/cli.json"
    cmp "$tmp/after.json" "$tmp/cli.json"
    curl -sf "http://127.0.0.1:$port/healthz" -o "$tmp/health.json"
    python3 - "$tmp/health.json" <<'EOF'
import json, sys
h = json.load(open(sys.argv[1]))
store = h["store"]
assert store["hits"] > 0 and store["misses"] == 0, store
assert store["records"] >= 2, store
EOF
    kill -TERM "$pid"
    wait "$pid"
    rm -rf "$tmp"
}
kill_recovery ./build/pvar_served ./build/pvar_study ./build/pvar_storectl

# Chaos replay: a pinned fault plan must reproduce the same faulted
# study byte-for-byte at any jobs count and cohort width (retries,
# quarantine and all),
# and an injected store I/O fault must degrade persistence gracefully
# without changing a single result byte.
chaos() {
    local study=$1 storectl=$2 tmp
    tmp=$(mktemp -d)
    cat > "$tmp/chaos.json" <<'EOF'
{"seed": 20250811, "rules": [
  {"site": "experiment.run", "kind": "transient", "probability": 0.35},
  {"site": "thermabox.regulate", "kind": "transient",
   "probability": 0.0005}
]}
EOF
    "$study" --soc SD-805 --iterations 1 --jobs 1 --json --quiet \
        --fault-plan "$tmp/chaos.json" --output "$tmp/chaos1.json" \
        2> "$tmp/chaos1.err"
    "$study" --soc SD-805 --iterations 1 --jobs 4 --json --quiet \
        --fault-plan "$tmp/chaos.json" --output "$tmp/chaos4.json"
    cmp "$tmp/chaos1.json" "$tmp/chaos4.json"
    # Retries inside multi-member cohorts: attempt rounds of width-8
    # cohorts must replay the same faulted study byte-for-byte.
    "$study" --soc SD-805 --iterations 1 --jobs 4 --batch 8 --json \
        --quiet --fault-plan "$tmp/chaos.json" \
        --output "$tmp/chaos4b8.json"
    cmp "$tmp/chaos1.json" "$tmp/chaos4b8.json"
    # The plan must actually have bitten: at least one retry logged.
    grep -q 'retrying' "$tmp/chaos1.err"

    # Degraded store: every append fails, so the run computes
    # everything, persists nothing, and says so loudly — while the
    # result bytes stay identical to an uncached reference run.
    cat > "$tmp/store_fault.json" <<'EOF'
{"seed": 1, "rules": [
  {"site": "store.append", "kind": "io", "every": 1}
]}
EOF
    "$study" --device SD-805:unit-b --iterations 1 --json --quiet \
        --output "$tmp/ref.json"
    "$study" --device SD-805:unit-b --iterations 1 --json --quiet \
        --cache-dir "$tmp/store" \
        --fault-plan "$tmp/store_fault.json" \
        --output "$tmp/faulted.json" 2> "$tmp/faulted.err"
    cmp "$tmp/ref.json" "$tmp/faulted.json"
    grep -q 'degraded' "$tmp/faulted.err"
    local rc=0
    "$storectl" verify --cache-dir "$tmp/store" --quiet || rc=$?
    [ "$rc" -eq 2 ] # degraded marker => distinct exit code

    # A clean rerun persists, clears the marker, and still matches.
    "$study" --device SD-805:unit-b --iterations 1 --json --quiet \
        --cache-dir "$tmp/store" --output "$tmp/clean.json"
    cmp "$tmp/ref.json" "$tmp/clean.json"
    "$storectl" verify --cache-dir "$tmp/store" --quiet
    rm -rf "$tmp"
}
chaos ./build/pvar_study ./build/pvar_storectl

# Solver equivalence: the analytic fast path must reproduce the full
# stepped study within its accuracy contract — per-unit scores and
# energies to 1%, derived variation percentages to one point. (The
# two solvers agree to tolerance, not bit-for-bit: `stepped` remains
# the bit-identity reference.)
solver_equivalence() {
    local study=$1 tmp
    tmp=$(mktemp -d)
    "$study" --iterations 1 --jobs 1 --solver stepped --json --quiet \
        --output "$tmp/stepped.json"
    "$study" --iterations 1 --jobs 1 --solver fast --json --quiet \
        --output "$tmp/fast.json"
    python3 - "$tmp/stepped.json" "$tmp/fast.json" <<'EOF'
import json, sys
stepped = json.load(open(sys.argv[1]))
fast = json.load(open(sys.argv[2]))
assert len(stepped) == len(fast), (len(stepped), len(fast))
for s, f in zip(stepped, fast):
    assert s["soc"] == f["soc"]
    for key in ("perf_variation_percent", "energy_variation_percent",
                "fixed_perf_spread_percent"):
        assert abs(s[key] - f[key]) <= 1.0, (s["soc"], key, s[key], f[key])
    assert s["quarantined_units"] == f["quarantined_units"], s["soc"]
    for su, fu in zip(s["units"], f["units"]):
        assert su["unit"] == fu["unit"]
        for key in ("mean_score", "mean_unconstrained_energy_j",
                    "mean_fixed_energy_j", "mean_fixed_score"):
            rel = abs(su[key] - fu[key]) / max(abs(su[key]), 1e-9)
            assert rel <= 0.01, (s["soc"], su["unit"], key,
                                 su[key], fu[key])
print("solver equivalence ok:", ", ".join(s["soc"] for s in stepped))
EOF
    rm -rf "$tmp"
}
solver_equivalence ./build/pvar_study

# Batch identity: the die-cohort engine is a pure throughput knob.
# A full fast-solver study and a stepped reference study must emit
# byte-identical reports at width 1 and width 16 — per-die results
# may not depend on how many dies advance in lockstep.
batch_identity() {
    local study=$1 tmp
    tmp=$(mktemp -d)
    "$study" --iterations 1 --jobs 2 --solver fast --batch 1 \
        --json --quiet --output "$tmp/fast_b1.json"
    "$study" --iterations 1 --jobs 2 --solver fast --batch 16 \
        --json --quiet --output "$tmp/fast_b16.json"
    cmp "$tmp/fast_b1.json" "$tmp/fast_b16.json"
    "$study" --soc SD-805 --iterations 1 --jobs 2 --solver stepped \
        --batch 1 --json --quiet --output "$tmp/stepped_b1.json"
    "$study" --soc SD-805 --iterations 1 --jobs 2 --solver stepped \
        --batch 16 --json --quiet --output "$tmp/stepped_b16.json"
    cmp "$tmp/stepped_b1.json" "$tmp/stepped_b16.json"
    rm -rf "$tmp"
}
batch_identity ./build/pvar_study

# Crowd identity: the stratified sampler must be a pure function of
# (population seed, strata, rounds) — byte-identical reports at any
# jobs count and cohort width — and a live-point-warm rerun on the
# same store must reproduce the cold bytes exactly while storectl
# still validates every checkpoint through the digested codec path.
crowd_identity() {
    local study=$1 storectl=$2 tmp
    tmp=$(mktemp -d)
    "$study" --crowd 256 --strata 4 --jobs 1 --batch 1 --quiet \
        --output "$tmp/j1.json"
    "$study" --crowd 256 --strata 4 --jobs 4 --batch 1 --quiet \
        --output "$tmp/j4.json"
    "$study" --crowd 256 --strata 4 --jobs 2 --batch 16 --quiet \
        --output "$tmp/b16.json"
    cmp "$tmp/j1.json" "$tmp/j4.json"
    cmp "$tmp/j1.json" "$tmp/b16.json"
    # Cold run captures one live point per sampled die; the warm rerun
    # restores from them and must not change a single output byte.
    "$study" --crowd 256 --strata 4 --quiet \
        --cache-dir "$tmp/store" --output "$tmp/cold.json"
    "$study" --crowd 256 --strata 4 --quiet \
        --cache-dir "$tmp/store" --output "$tmp/warm.json"
    cmp "$tmp/j1.json" "$tmp/cold.json"
    cmp "$tmp/cold.json" "$tmp/warm.json"
    "$storectl" verify --cache-dir "$tmp/store" --quiet
    "$storectl" stats --cache-dir "$tmp/store" --quiet \
        > "$tmp/stats.json"
    python3 - "$tmp/stats.json" <<'EOF'
import json, sys
s = json.load(open(sys.argv[1]))
assert s["live_point_records"] == 16, s
assert s["live_point_bytes"] > 0, s
EOF
    rm -rf "$tmp"
}
crowd_identity ./build/pvar_study ./build/pvar_storectl

# Service under load: the native generator drives a live server over
# keep-alive connections — zero transport errors, zero non-2xx, a
# sampled /study response byte-identical to the CLI, and (in the
# normal tree, where timing is honest) keep-alive throughput strictly
# above the one-connection-per-request baseline.
service_load() {
    local served=$1 loadgen=$2 study=$3 assert_speedup=$4 tmp
    tmp=$(mktemp -d)
    "$served" --port 0 --port-file "$tmp/port" --iterations 1 \
        --quiet & local pid=$!
    for _ in $(seq 100); do [ -s "$tmp/port" ] && break; sleep 0.1; done
    local port; port=$(cat "$tmp/port")
    # Closed-loop /study: every response is a full study; the sampled
    # body must be exactly what pvar_study prints.
    "$loadgen" --port "$port" --path /study \
        --body '{"device": "SD-805:unit-b", "iterations": 1}' \
        --connections 2 --duration-ms 800 --warmup-ms 100 \
        --json "$tmp/study.json" --sample "$tmp/sample.json" --quiet
    "$study" --device SD-805:unit-b --iterations 1 --json --quiet \
        --output "$tmp/cli.json"
    cmp "$tmp/sample.json" "$tmp/cli.json"
    # Keep-alive versus reconnect-per-request on the cheap endpoint.
    # Interleaved best-of-3 per mode: on a 1-core box a background
    # blip can swing one short run by more than the keep-alive margin.
    local i
    for i in 1 2 3; do
        "$loadgen" --port "$port" --path /devices --connections 2 \
            --duration-ms 600 --warmup-ms 100 \
            --json "$tmp/keep.$i.json" --quiet
        "$loadgen" --port "$port" --path /devices --connections 2 \
            --duration-ms 600 --warmup-ms 100 --close \
            --json "$tmp/close.$i.json" --quiet
    done
    kill -TERM "$pid"
    wait "$pid"
    python3 - "$tmp" "$assert_speedup" <<'EOF'
import json, sys
tmp = sys.argv[1]
study = json.load(open(tmp + "/study.json"))
keeps = [json.load(open("%s/keep.%d.json" % (tmp, i))) for i in (1, 2, 3)]
closes = [json.load(open("%s/close.%d.json" % (tmp, i))) for i in (1, 2, 3)]
for r in [study] + keeps + closes:
    assert r["errors"] == 0 and r["non_2xx"] == 0, r
    assert r["requests"] > 0, r
assert study["keepalive_reuses"] > 0, study
keep = max(r["rps"] for r in keeps)
close = max(r["rps"] for r in closes)
if sys.argv[2] == "1":
    assert keep > close, (keep, close)
EOF
    rm -rf "$tmp"
}
service_load ./build/pvar_served ./build/pvar_loadgen \
    ./build/pvar_study 1

# Chaos soak: the service under syscall-level fault injection
# (EMFILE/ECONNABORTED accepts, short reads/writes, resets, EPIPE,
# EINTR, ENOSPC, fsync EIO) followed by a SIGKILL mid-traffic. Each
# seed must uphold every invariant: no crash, 2xx bodies byte-equal
# to the CLI oracle, non-2xx only as deliberate sheds, a coherent
# /healthz, and a store that recovers with zero bad records. Short
# here; EXPERIMENTS.md documents the long soak.
chaos_soak() {
    local chaos=$1 seeds=$2 duration=$3
    "$chaos" --seeds "$seeds" --duration "$duration"
}
chaos_soak ./build/pvar_chaos 3 2

# ThreadSanitizer pass over the parallel runner: the pool unit tests,
# the protocol determinism tests (including concurrent warm studies
# reading one cache's shared traces), the cohort engine, the spec/JSON
# layer feeding the parallel scheduler, the service (acceptor +
# workers + cache under concurrent requests), parallel crowd cohorts
# sharing one live-point cache, and real multi-worker study runs
# (builtin SoC and JSON-defined fleet).
cmake -B build-tsan -G Ninja -DPVAR_SANITIZE=thread
cmake --build build-tsan \
    --target test_parallel test_protocol test_batch test_json test_spec \
        test_service test_eventloop test_store test_fault test_sampling \
        pvar_study pvar_served pvar_loadgen pvar_storectl pvar_chaos
./build-tsan/tests/test_parallel
./build-tsan/tests/test_eventloop
./build-tsan/tests/test_fault
./build-tsan/tests/test_protocol
./build-tsan/tests/test_batch
./build-tsan/tests/test_json
./build-tsan/tests/test_spec
./build-tsan/tests/test_service
./build-tsan/tests/test_store
./build-tsan/tests/test_sampling
./build-tsan/pvar_study --soc SD-805 --iterations 1 --jobs 4 --quiet
./build-tsan/pvar_study --fleet examples/custom_fleet.json \
    --iterations 1 --jobs 4 --quiet
# Durable store under the parallel scheduler: every worker appends
# through the store lock while the study fans out.
tsan_store=$(mktemp -d)
./build-tsan/pvar_study --soc SD-805 --iterations 1 --jobs 4 --quiet \
    --cache-dir "$tsan_store"
./build-tsan/pvar_study --soc SD-805 --iterations 1 --jobs 4 --quiet \
    --cache-dir "$tsan_store"
rm -rf "$tsan_store"
# The full fleet through the store: the warm rerun recovers its 36
# records on every core and then reads them from four workers at once
# (SD-805 alone has two cohorts, so at most two readers). Cold and
# warm bytes must match.
tsan_fleet=$(mktemp -d)
for pass in cold warm; do
    ./build-tsan/pvar_study --solver fast --iterations 1 --jobs 4 \
        --cache-dir "$tsan_fleet/store" --json --quiet \
        --output "$tsan_fleet/$pass.json"
done
cmp "$tsan_fleet/cold.json" "$tsan_fleet/warm.json"
rm -rf "$tsan_fleet"
service_smoke ./build-tsan/pvar_served ./build-tsan/pvar_study
kill_recovery ./build-tsan/pvar_served ./build-tsan/pvar_study \
    ./build-tsan/pvar_storectl
chaos ./build-tsan/pvar_study ./build-tsan/pvar_storectl
solver_equivalence ./build-tsan/pvar_study
batch_identity ./build-tsan/pvar_study
crowd_identity ./build-tsan/pvar_study ./build-tsan/pvar_storectl
service_load ./build-tsan/pvar_served ./build-tsan/pvar_loadgen \
    ./build-tsan/pvar_study 0
chaos_soak ./build-tsan/pvar_chaos 2 2

# AddressSanitizer pass over the I/O-heavy layers and the lifetimes of
# shared traces: the event loop's buffer handling under short
# reads/writes, the record log's recovery paths, cache hits and
# evictions while results hold their traces, the cohort engine
# publishing each member's trace, and the whole service while a chaos
# soak injects syscall faults into every transport and persistence
# edge.
cmake -B build-asan -G Ninja -DPVAR_SANITIZE=address
cmake --build build-asan \
    --target test_eventloop test_store test_fault test_service \
        test_protocol test_batch pvar_chaos
./build-asan/tests/test_eventloop
./build-asan/tests/test_store
./build-asan/tests/test_fault
./build-asan/tests/test_service
./build-asan/tests/test_protocol
./build-asan/tests/test_batch
chaos_soak ./build-asan/pvar_chaos 2 2

# UndefinedBehaviorSanitizer pass over the numeric core: die and
# cluster power, the supply solve, the device tick on both solvers,
# the cohort engine and the study protocol, then a full fast-solver
# study. Any report aborts the run.
cmake -B build-ubsan -G Ninja -DPVAR_SANITIZE=undefined
cmake --build build-ubsan \
    --target test_die test_cluster_soc test_power test_device \
        test_fast_solver test_batch test_protocol pvar_study
./build-ubsan/tests/test_die
./build-ubsan/tests/test_cluster_soc
./build-ubsan/tests/test_power
./build-ubsan/tests/test_device
./build-ubsan/tests/test_fast_solver
./build-ubsan/tests/test_batch
./build-ubsan/tests/test_protocol
./build-ubsan/pvar_study --solver fast --iterations 1 --quiet

fail=0
for b in build/bench/bench_*; do
    [ -f "$b" ] && [ -x "$b" ] || continue
    name=$(basename "$b")
    out=$("$b" 2>&1) || { echo "FAILED to run: $name"; fail=1; continue; }
    misses=$(grep -c 'MISS' <<<"$out" || true)
    if [ "$misses" != "0" ]; then
        echo "SHAPE CHECK MISS in $name:"
        grep 'MISS' <<<"$out"
        fail=1
    else
        echo "ok: $name"
    fi
done
exit $fail
