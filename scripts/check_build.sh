#!/bin/sh
# Tier-1 verification: full configure + build + test, plus source
# lints. Run before every commit.
set -e
cd "$(dirname "$0")/.."

# Lint: ad-hoc instrumentation is not allowed on the service path.
# Timing belongs in src/telemetry (RequestLog / histograms),
# console output in common/logging. strprintf() is fine: the \b
# boundary only matches bare printf-family calls.
bad=$(grep -rnE '\bprintf\(|\bfprintf\(|gettimeofday|clock_gettime' \
    src/core/ || true)
if [ -n "$bad" ]; then
    echo "lint: ad-hoc printf/timing in src/core;" \
         "use src/telemetry instead:" >&2
    echo "$bad" >&2
    exit 1
fi

# Lint: one inference path. Every forward pass in src/core runs
# through BatchingExecutor's execute step (batched, or a batch of
# one for unbatched serving), so no other file may call forward().
bad=$(grep -rnE '(Network::|->|\.)forward\(' src/core/ \
    | grep -v '^src/core/batcher\.cc:' || true)
if [ -n "$bad" ]; then
    echo "lint: forward() called outside src/core/batcher.cc;" \
         "route inference through BatchingExecutor:" >&2
    echo "$bad" >&2
    exit 1
fi

# Lint: one write per finished request (DESIGN.md §6). Every
# per-request family (the request, row and SLO counters,
# djinn_request_*, and the decode / queue_wait / encode / service
# phases) is derived from the request's flight record by
# telemetry::RequestLog::finish(), so no .histogram( / .counter(
# call in src/core names one; the executor's per-pass forward
# instruments are not per-request.
per_request='requests?(Total|Seconds|Cycles|Ipc)|rowsTotal|slo(Good|Bad)'
per_request="$per_request|djinn_(requests|rows|slo_good|slo_bad)_total"
per_request="$per_request|djinn_request_(seconds|cycles|ipc)"
per_request="$per_request|Phase::(Decode|QueueWait|Encode|Service)"
bad=$(for f in src/core/*.cc; do
    tr '\n' ' ' < "$f" \
        | grep -oE '(\.|->)(histogram|counter)\([^;]*;' \
        | tr -s ' ' | grep -E "$per_request" | sed "s|^|$f: |"
done || true)
if [ -n "$bad" ]; then
    echo "lint: per-request metric written outside" \
         "telemetry::RequestLog::finish():" >&2
    echo "$bad" >&2
    exit 1
fi

# Lint: each signal is recorded once (DESIGN.md §7). A sampled
# request's server spans are derived from its flight record by
# telemetry::RequestLog::finish(), and the trace's counter tracks
# are rendered from the time-series store's gauges, so the server
# builds no TraceEvent and nothing writes counter samples into the
# trace ring.
bad=$({ grep -HnE '\bTraceEvent\b' src/core/djinn_server.cc;
        grep -rn 'recordCounter' src/; } || true)
if [ -n "$bad" ]; then
    echo "lint: a second write path for request spans or counter" \
         "tracks; derive spans in RequestLog::finish() and sample" \
         "gauges into the time-series store:" >&2
    echo "$bad" >&2
    exit 1
fi

# Lint: work-conserving batch assembly (DESIGN.md §16). A query for
# an idle model runs at once and peers gather only behind a forward
# in flight, so the executor never waits on a timer for peers: the
# only timed wait in batcher.cc is the dispatch gate's 1 ms recheck.
bad=$(tr '\n' ' ' < src/core/batcher.cc \
    | grep -oE '\b(wait_for|wait_until|sleep_for|sleep_until)\([^;]*;' \
    | tr -s ' ' \
    | grep -vxE 'wait_for\( ?lock, std::chrono::milliseconds\(1\)\);' \
    || true)
if [ -n "$bad" ]; then
    echo "lint: timed wait in src/core/batcher.cc other than the" \
         "dispatch gate's 1 ms recheck:" >&2
    echo "$bad" >&2
    exit 1
fi

# Lint: FC and conv weights are packed once per precision
# (DESIGN.md §8). The inner product and convolution layers run
# gemm_packed on their PackedWeights; a raw-operand GEMM call there
# would re-pack the weights on every forward pass.
bad=$(grep -nE '\b(sgemm|gemm_bf16|gemm_s8|gemm_s8_wl)\(' \
    src/nn/layers/inner_product.cc src/nn/layers/convolution.cc \
    || true)
if [ -n "$bad" ]; then
    echo "lint: raw-operand GEMM in a packed-weight layer;" \
         "serve FC and conv layers through gemm_packed:" >&2
    echo "$bad" >&2
    exit 1
fi

# Lint: weights are sealed once packed (DESIGN.md §8). Layer's
# packWeights() packs a layer exactly once, at the latest on its
# first forward, and nothing rewrites the weights after, so the FC
# and conv forwards read their packs with no lock.
bad=$(grep -rnE 'std::mutex|lock_guard|invalidatePacked' \
    src/nn/layers/ || true)
if [ -n "$bad" ]; then
    echo "lint: lock or pack invalidation in src/nn/layers;" \
         "weights are sealed once packed (Layer::packWeights):" >&2
    echo "$bad" >&2
    exit 1
fi

# Lint: one debug-route table. The Metrics wire verb and the HTTP
# endpoint both dispatch through core/debug_routes, so verb-prefix
# matching and query-string parsing appear nowhere else in src/core.
bad=$(grep -rnE 'rfind\("[^"]*:", *0\)|queryParam\(' src/core/ \
    | grep -v '^src/core/debug_routes\.cc:' || true)
if [ -n "$bad" ]; then
    echo "lint: debug-view dispatch outside" \
         "src/core/debug_routes.cc; add a route to its table:" >&2
    echo "$bad" >&2
    exit 1
fi

# Lint: the simulators guarantee bit-identical replays from a
# seed, so wall-clock time and unseeded randomness are banned in
# src/sim and src/cluster (common/rng's seeded generators and the
# event queue's virtual clock are the only time/chance sources).
bad=$(grep -rnE \
    'std::random_device|system_clock|steady_clock|gettimeofday|clock_gettime|\btime\(' \
    src/sim/ src/cluster/ || true)
if [ -n "$bad" ]; then
    echo "lint: wall clock / unseeded randomness in simulator" \
         "sources; use common/rng and sim::EventQueue time:" >&2
    echo "$bad" >&2
    exit 1
fi

# Lint: metric families must be snake_case and registered in the
# committed allowlist, so a rename or a typo'd name breaks the
# build instead of silently orphaning a dashboard. The allowlist
# itself must stay sorted (binary-search friendly, diff stable).
if ! grep -v '^#' scripts/metric_allowlist.txt | sort -c; then
    echo "lint: scripts/metric_allowlist.txt is not sorted" >&2
    exit 1
fi
used=$(grep -rhoE '"djinn_[A-Za-z0-9_]*"' src/ tools/ bench/ \
    | tr -d '"' | sort -u)
listed=$(grep -v '^#' scripts/metric_allowlist.txt | sort -u)
bad=$(printf '%s\n' "$used" | grep -vE '^djinn_[a-z0-9_]+$' || true)
if [ -n "$bad" ]; then
    echo "lint: metric names must be snake_case:" >&2
    echo "$bad" >&2
    exit 1
fi
drift=$(printf '%s\n%s\n' "$used" "$listed" | sort | uniq -u || true)
if [ -n "$drift" ]; then
    echo "lint: metric names out of sync with" \
         "scripts/metric_allowlist.txt:" >&2
    echo "$drift" >&2
    exit 1
fi

cmake -B build -S . && cmake --build build -j && \
    cd build && ctest --output-on-failure -j "$(nproc)"
cd ..

# The int8 kernels the GEMM battery ran bit for bit against its
# scalar reference (AMX tiles only where the host grants them), so
# the log shows whether AMX was covered. The ASan/UBSan and TSan
# stages below run the same battery (GemmDiff*) and print the same.
./build/tests/nn_test \
    --gtest_filter='GemmDiffInt8.KernelsAgreeBitForBit' \
    | grep 'kernels run:'

# Guarded vector math (DESIGN.md §8): exp, LRN's x^0.75 and the
# sigmoid must give the scalar expressions' bits on every one of the
# 2^32 float inputs. glibc picks its expf/powf per host, so this
# proves the identity against the libm this host loads (~30 s on 4
# threads).
./build/tools/vmath_check

# Smoke test the observability surface: boot a real daemon with the
# HTTP endpoint and let scrape_check validate /healthz, /metrics
# (must parse as Prometheus exposition), /trace, and /profile.
# /profile samples for its own window (scrape_check accepts 503
# where signal timers are restricted).
http_port=19164
./build/tools/djinnd --port 19163 --http-port "$http_port" \
    --models mnist --batching &
djinnd_pid=$!
trap 'kill "$djinnd_pid" 2>/dev/null || true' EXIT

# Put some inference load through the daemon first so the flight
# recorder has records and djinn_request_seconds has exemplar-
# bearing buckets for scrape_check's OpenMetrics and /debug/tail
# checks to validate against.
tries=0
until ./build/tools/djinn_cli --timeout-ms 2000 127.0.0.1 19163 \
    ping > /dev/null 2>&1; do
    tries=$((tries + 1))
    if [ "$tries" -ge 50 ]; then
        echo "check_build: djinnd did not come up" >&2
        exit 1
    fi
    sleep 0.2
done
for _ in 1 2 3 4 5 6 7 8; do
    if ! ./build/tools/djinn_cli 127.0.0.1 19163 infer mnist 4 \
        > /dev/null; then
        echo "check_build: smoke inference FAILED" >&2
        exit 1
    fi
done

if ! ./build/tools/scrape_check 127.0.0.1 "$http_port"; then
    echo "check_build: HTTP scrape smoke test FAILED" >&2
    exit 1
fi

# Tail attribution smoke under that load: the CLI's `tail` verb
# must answer a report naming a dominant contributor.
if ! ./build/tools/djinn_cli 127.0.0.1 19163 tail 90 \
    | grep -q "tail attribution"; then
    echo "check_build: djinn_cli tail smoke FAILED" >&2
    exit 1
fi

# Live dashboard e2e: `djinn_cli top` must render per-model series
# computed from the daemon's time-series store over the wire. Two
# frames through the non-tty path (plain text, no escape codes).
if ! ./build/tools/djinn_cli --frames 2 --interval-ms 100 \
    127.0.0.1 19163 top | grep -q "djinn top"; then
    echo "check_build: djinn_cli top smoke FAILED" >&2
    exit 1
fi
if ! ./build/tools/djinn_cli --frames 1 127.0.0.1 19163 top \
    | grep -q "mnist"; then
    echo "check_build: djinn_cli top lacks per-model row" >&2
    exit 1
fi
kill "$djinnd_pid" 2>/dev/null || true
wait "$djinnd_pid" 2>/dev/null || true
trap - EXIT

# Unbatched smoke: a default-config daemon serves each request as
# a batch of one on its worker thread. Inference must succeed, and
# `metrics requests` (rendered from the flight recorder) must list
# the served requests under its header; `tail` must answer.
./build/tools/djinnd --port 19167 --models mnist &
plain_pid=$!
trap 'kill "$plain_pid" 2>/dev/null || true' EXIT
tries=0
until ./build/tools/djinn_cli --timeout-ms 2000 127.0.0.1 19167 \
    ping > /dev/null 2>&1; do
    tries=$((tries + 1))
    if [ "$tries" -ge 50 ]; then
        echo "check_build: unbatched djinnd did not come up" >&2
        exit 1
    fi
    sleep 0.2
done
for _ in 1 2 3 4; do
    if ! ./build/tools/djinn_cli 127.0.0.1 19167 infer mnist 2 \
        > /dev/null; then
        echo "check_build: unbatched inference FAILED" >&2
        exit 1
    fi
done
requests=$(./build/tools/djinn_cli 127.0.0.1 19167 metrics requests)
if ! printf '%s\n' "$requests" | head -n 1 | grep -q '^trace_id' \
    || ! printf '%s\n' "$requests" | grep -q ' mnist '; then
    echo "check_build: unbatched metrics requests lacks rows:" >&2
    printf '%s\n' "$requests" >&2
    exit 1
fi
if ! ./build/tools/djinn_cli 127.0.0.1 19167 tail \
    | grep -q "tail attribution"; then
    echo "check_build: unbatched djinn_cli tail smoke FAILED" >&2
    exit 1
fi
kill "$plain_pid" 2>/dev/null || true
wait "$plain_pid" 2>/dev/null || true
trap - EXIT

# Adaptive scheduler smoke (DESIGN.md §16): boot a daemon with two
# weighted tenants sharing the mnist weights under --sched adaptive,
# drive load through both instances, then assert the djinn_sched_*
# gauge families show up in the exposition and the `sched` wire verb
# answers with the scheduler state dump.
./build/tools/djinnd --port 19166 --models mnist --batching \
    --sched adaptive --slo-ms 50 \
    --tenant gold=mnist:2 --tenant bronze=mnist:1 &
sched_pid=$!
trap 'kill "$sched_pid" 2>/dev/null || true' EXIT
tries=0
until ./build/tools/djinn_cli --timeout-ms 2000 127.0.0.1 19166 \
    ping > /dev/null 2>&1; do
    tries=$((tries + 1))
    if [ "$tries" -ge 50 ]; then
        echo "check_build: sched djinnd did not come up" >&2
        exit 1
    fi
    sleep 0.2
done
for tenant in gold bronze gold bronze; do
    if ! ./build/tools/djinn_cli 127.0.0.1 19166 infer "$tenant" 4 \
        > /dev/null; then
        echo "check_build: tenant inference ($tenant) FAILED" >&2
        exit 1
    fi
done
if ! ./build/tools/djinn_cli 127.0.0.1 19166 metrics \
    | grep -q '^djinn_sched_'; then
    echo "check_build: metrics lack djinn_sched_* gauges" >&2
    exit 1
fi
if ! ./build/tools/djinn_cli 127.0.0.1 19166 sched \
    | grep -q '"tenant": "gold"'; then
    echo "check_build: sched verb lacks tenant state" >&2
    exit 1
fi
kill "$sched_pid" 2>/dev/null || true
wait "$sched_pid" 2>/dev/null || true
trap - EXIT

# Robustness battery (DESIGN.md §10): fault-injection, timeout,
# retry, backpressure, and drain suites in release mode. The TSan
# stage below re-runs most of them; the fd-exhaustion AcceptLoop
# test runs only here (starving the fd table starves TSan itself).
./build/tests/core_test --gtest_filter=\
'FrameIo*:FaultSpec*:Retry*:Robustness*:AcceptLoop*:HttpTimeout*'

# Fault-injection smoke at the daemon level: DJINN_FAULT must be
# honored from the environment, and slow-read degrades throughput
# without corrupting frames, so the control plane still answers.
DJINN_FAULT=slow-read ./build/tools/djinnd --port 19165 \
    --models mnist &
fault_pid=$!
trap 'kill "$fault_pid" 2>/dev/null || true' EXIT
sleep 1
if ! ./build/tools/djinn_cli 127.0.0.1 19165 list; then
    echo "check_build: fault-injection smoke FAILED" >&2
    exit 1
fi
kill "$fault_pid" 2>/dev/null || true
wait "$fault_pid" 2>/dev/null || true
trap - EXIT

# Cluster-simulator determinism smoke: the same seed must produce
# byte-identical JSON (trace hash, percentiles, time series, and
# the flight-record tail attribution) on repeated runs of the real
# binary, not just inside one process.
cluster_args="--nodes 8 --policy jsq-d --workload mmpp \
    --rate 4000 --duration 5 --seed 42 --json"
./build/tools/cluster_sim $cluster_args > /tmp/djinn_cluster_a.json
./build/tools/cluster_sim $cluster_args > /tmp/djinn_cluster_b.json
if ! cmp -s /tmp/djinn_cluster_a.json /tmp/djinn_cluster_b.json; then
    echo "check_build: cluster_sim determinism smoke FAILED" >&2
    diff /tmp/djinn_cluster_a.json /tmp/djinn_cluster_b.json >&2 \
        || true
    exit 1
fi
if ! grep -q djinn_tail_dominant /tmp/djinn_cluster_a.json; then
    echo "check_build: cluster_sim JSON lacks tail attribution" >&2
    exit 1
fi
rm -f /tmp/djinn_cluster_a.json /tmp/djinn_cluster_b.json

# Throughput-vs-SLO frontier (DESIGN.md §16): the JSON sweep must be
# byte-identical across runs (the adaptive scheduler is clock-free),
# and in text mode the hybrid policy must weakly dominate both the
# batch-only and mt-only baselines at >= 2 of the swept load points.
./build/bench/ablation_colocation --frontier --json \
    > /tmp/djinn_frontier_a.json
./build/bench/ablation_colocation --frontier --json \
    > /tmp/djinn_frontier_b.json
if ! cmp -s /tmp/djinn_frontier_a.json /tmp/djinn_frontier_b.json; then
    echo "check_build: frontier determinism smoke FAILED" >&2
    diff /tmp/djinn_frontier_a.json /tmp/djinn_frontier_b.json >&2 \
        || true
    exit 1
fi
rm -f /tmp/djinn_frontier_a.json /tmp/djinn_frontier_b.json
dominated=$(./build/bench/ablation_colocation --frontier \
    | sed -nE \
    's/.*hybrid weakly dominates both baselines at ([0-9]+) of.*/\1/p')
if [ -z "$dominated" ] || [ "$dominated" -lt 2 ]; then
    echo "check_build: hybrid dominates at ${dominated:-0} load" \
         "points (need >= 2)" >&2
    exit 1
fi

# Perf-regression harness smoke (DESIGN.md §15): two back-to-back
# quick runs of bench_suite must compare clean (the noise-aware
# thresholds absorb run-to-run jitter; the cluster stage is
# bit-identical by construction), and the comparator's built-in
# self-test proves it fails on an injected regression of each
# class. The first run's JSON then feeds the int8 gate below.
./build/bench/bench_suite --quick --out /tmp/djinn_bench_a.json
./build/bench/bench_suite --quick --out /tmp/djinn_bench_b.json
if ! ./build/bench/bench_compare /tmp/djinn_bench_a.json \
    /tmp/djinn_bench_b.json; then
    echo "check_build: bench_suite self-comparison FAILED" >&2
    exit 1
fi
if ! ./build/bench/bench_compare --self-test; then
    echo "check_build: bench_compare self-test FAILED" >&2
    exit 1
fi

# Quantization battery (DESIGN.md §14), three parts. First the
# quick run's one-thread GEMM rates: int8 must actually be faster
# than f32 through the raw-operand entry at the square 512 shape,
# and with packed weights at every quick shape, or the low-
# precision path has regressed into pointless accuracy loss. (The
# raw int8 entry repacks its weights per call, so at senna_fc1 it
# is gated packed only.)
gemm_rate() { # ENTRY ("" = raw operands) PRECISION SHAPE
    local q='\"' # a label value's quote, escaped in the JSON id
    local labels="precision=$q$2$q,shape=$q$3$q,threads=${q}1$q}"
    [ -n "$1" ] && labels="entry=$q$1$q,$labels"
    grep -F "\"djinn_bench_gemm_gflops{$labels\"" "$bench_json" \
        | sed -E 's/.*"value": ([0-9.eE+-]+).*/\1/'
}
int8_gate() { # ENTRY SHAPE
    local int8 f32
    int8=$(gemm_rate "$1" int8 "$2")
    f32=$(gemm_rate "$1" f32 "$2")
    if [ -z "$int8" ] || [ -z "$f32" ]; then
        echo "check_build: $bench_json lacks ${1:-raw} int8/f32" \
             "djinn_bench_gemm_gflops at $2, 1 thread" >&2
        return 1
    fi
    if ! awk -v i="$int8" -v f="$f32" \
        'BEGIN { exit !(i + 0 >= f + 0) }'; then
        echo "check_build: ${1:-raw} int8 GEMM at $2 ($int8 GF)" \
             "slower than f32 ($f32 GF)" >&2
        return 1
    fi
}
bench_json=/tmp/djinn_bench_a.json
int8_gate "" square512 || exit 1
for shape in senna_fc1 square512; do
    int8_gate packed "$shape" || exit 1
done
rm -f /tmp/djinn_bench_a.json /tmp/djinn_bench_b.json

# Second, the differential battery and quantization property tests
# under AddressSanitizer + UBSan: the packed kernels index raw
# panel buffers with hand-rolled arithmetic, exactly where a
# fuzzy-but-passing out-of-bounds read would hide, and the conv
# layer's im2row indexes the image the same way. The FFT front
# end indexes through a bit-reversal table, and the Tonic apps
# read fixed-width rows out of server responses that the
# WrongWidth tests deliberately mis-size. The guarded vector math
# loads and stores masked tails of raw layer buffers (Vmath*, and
# the Sigmoid, LRN and batch-composition tests through the layers).
# The whole telemetry suite runs: its sorts' temporary buffers come
# from the nothrow operator new that timeseries_test replaces.
cmake -B build-asan -S . -DDJINN_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-asan -j --target nn_test tonic_test \
    tonic_apps_test telemetry_test
./build-asan/tests/nn_test \
    --gtest_filter='GemmDiff*:Quant*:Convolution*:Vmath*:Activation*:Lrn*:*BatchComposition*'
./build-asan/tests/tonic_test --gtest_filter='Filterbank*:Splice*'
./build-asan/tests/tonic_apps_test \
    --gtest_filter='WrongWidth*:AsrPipeline*'
./build-asan/tests/telemetry_test

# ThreadSanitizer pass over the concurrency-heavy suites: the
# compute pool, the threaded GEMM kernel, the batching server, and
# the request-lifecycle robustness battery.
cmake -B build-tsan -S . -DDJINN_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-tsan -j --target common_test nn_test core_test \
    cluster_test telemetry_test
./build-tsan/tests/common_test \
    --gtest_filter='ThreadPool*:ComputePool*'
# GemmDiff* covers the f32, bf16, and int8 batteries (all three
# run the threaded driver); Quant* rides along for the scalar
# primitives; InnerProduct* and Convolution* race four first
# forwards of a fresh layer to its once-only pack, then read it
# with no lock. *BatchComposition* runs the composition property
# through the live batcher's dispatcher too.
./build-tsan/tests/nn_test \
    --gtest_filter='GemmDiff*:Quant*:InnerProduct*:Convolution*:*BatchComposition*'
./build-tsan/tests/core_test \
    --gtest_filter='*Batcher*:*Server*:*Robustness*:*Retry*:*FrameIo*:*Observability*:*Sched*'
# The flight recorder's seqlock ring and the histogram exemplar
# slots are lock-free multi-writer structures; their stress tests
# are only meaningful under TSan.
# TimeSeries/Health ride along: the store's sample path runs on
# the sampler thread while queries and the health monitor read it.
# The profiler's StackRing shares the flight recorder's seqlock
# slot; its concurrent-pusher test checks it the same way. Sampler*
# starts, stops and restarts the sampler thread that ticks a store.
./build-tsan/tests/telemetry_test \
    --gtest_filter='FlightRecorder*:*Exemplar*:TimeSeries*:Health*:StackRing*:Sampler*'
# The cluster simulator is single-threaded by design, but its
# results flow through the lock-free telemetry histograms; the
# determinism and policy suites double as a TSan check of that
# read path.
./build-tsan/tests/cluster_test \
    --gtest_filter='ClusterSim*:Policy*'

echo "check_build: OK"
