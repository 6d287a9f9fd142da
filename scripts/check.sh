#!/usr/bin/env bash
# Tier-1 verification wrapper: configure, build, and run the full test
# suite. This is the command CI and pre-merge checks run.
#
# Usage:
#   scripts/check.sh               # default build + all tests
#   scripts/check.sh --sanitize    # ASan/UBSan build, obs-labeled tests
#                                  # first, then the full suite
#   scripts/check.sh --no-tracing  # HYDRA_TRACING=OFF build: proves
#                                  # spans/traces compile out and the
#                                  # suite still passes without them
#   scripts/check.sh --bench-smoke # Release build, run the channel
#                                  # data-path benches, fail if any is
#                                  # >2x slower than the checked-in
#                                  # baseline (scripts/bench_baseline.json)
#   scripts/check.sh --tsan        # ThreadSanitizer build, run the
#                                  # threaded-executor test label (the
#                                  # SPSC rings, payload pool, span id
#                                  # generator, and the full TiVo run
#                                  # on the threaded engine)
#   scripts/check.sh --perf-smoke  # 2 s perfbench run of every
#                                  # end-to-end workload: fail on a
#                                  # non-zero exit, a digest mismatch or
#                                  # a failed operation, or on a
#                                  # wall_ms_per_sim_s >2x the checked-in
#                                  # baseline (scripts/perf_baseline.json)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build
CMAKE_ARGS=()
SANITIZE=0
BENCH_SMOKE=0
PERF_SMOKE=0
TSAN=0

for arg in "$@"; do
    case "$arg" in
      --sanitize)
        SANITIZE=1
        BUILD_DIR=build-sanitize
        CMAKE_ARGS+=(-DHYDRA_SANITIZE=ON)
        ;;
      --no-tracing)
        BUILD_DIR=build-notrace
        CMAKE_ARGS+=(-DHYDRA_TRACING=OFF)
        ;;
      --bench-smoke)
        BENCH_SMOKE=1
        BUILD_DIR=build
        CMAKE_ARGS+=(-DCMAKE_BUILD_TYPE=Release)
        ;;
      --perf-smoke)
        PERF_SMOKE=1
        ;;
      --tsan)
        TSAN=1
        BUILD_DIR=build-tsan
        CMAKE_ARGS+=(-DHYDRA_TSAN=ON)
        ;;
      *)
        echo "usage: $0 [--sanitize|--no-tracing|--bench-smoke|--perf-smoke|--tsan]" >&2
        exit 2
        ;;
    esac
done

if [ "$PERF_SMOKE" -eq 1 ]; then
    # End-to-end smoke of the declared benchmark (BENCHMARK.json):
    # each workload runs with a 2 s budget through perfbench/run.py,
    # which builds its own Release tree. perf_smoke.py fails on a
    # non-zero exit, a digest mismatch or a failed operation, and
    # reshapes each wall_ms_per_sim_s into google-benchmark JSON so
    # bench_compare.py can hold it to the same generous 2x bound as
    # the micro rows.
    OUT="$BUILD_DIR/perf_smoke.json"
    mkdir -p "$BUILD_DIR"
    python3 scripts/perf_smoke.py "$OUT"
    python3 scripts/bench_compare.py scripts/perf_baseline.json "$OUT" 2.0
    exit 0
fi

cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}"
cmake --build "$BUILD_DIR" -j "$(nproc)"

if [ "$BENCH_SMOKE" -eq 1 ]; then
    # Wall-clock smoke of the zero-copy data path: the channel benches
    # plus the sim-engine pipeline rows (the deterministic executor's
    # per-hop dispatch cost; the threaded rows are excluded — real
    # threads on a shared box are too noisy for a regression gate)
    # the idle-host housekeeping tick (the L2 re-touch that sets
    # the wall cost of every paper run) and the event kernel's raw
    # dispatch rate (BM_SimulatorDispatch) against the committed
    # baseline. Generous 2x threshold -- this catches "the fast path
    # regressed to deep copies" or to a full hot-set walk per tick,
    # not machine-to-machine noise.
    # Fleet end-to-end smoke first: the scale ladder (10k/100k
    # streams, threaded executor). The binary exits nonzero if a rung
    # fails to deliver cleanly. The 1-vs-4-host goodput bar (>= 2x)
    # is the BM_FleetOpenLoop gate in bench_gate.py below.
    "$BUILD_DIR/bench/fleet_scale"
    OUT="$BUILD_DIR/bench_smoke.json"
    # Note: the bundled google-benchmark wants a bare double here (no
    # trailing time unit).
    "$BUILD_DIR/bench/perf_micro" \
        --benchmark_filter='BM_SimulatorDispatch|BM_HistogramRecord|BM_ChannelThroughput|BM_ChannelBatchThroughput|BM_ChannelLowLoad|BM_MulticastFanout|BM_FleetOpenLoop|BM_IdleHostTick|BM_PipelineParallel.*threaded:0|BM_BatchedPipeline.*threaded:0' \
        --benchmark_min_time=0.1 \
        --benchmark_format=json > "$OUT"
    echo "bench JSON written to $OUT"
    python3 scripts/bench_compare.py scripts/bench_baseline.json "$OUT" 2.0
    # Telemetry-engine budget: histogram record cost stays under
    # ~15 ns, and the instrumented channel rows (hist:1) stay within
    # 5% of their uninstrumented hist:0 twins from the same run. A 5%
    # bound needs quieter numbers than one 0.1 s pass on a shared VM
    # gives, so the gated benches run again with repetitions and the
    # gate reads the medians. Limits are env-overridable
    # (HYDRA_HIST_RECORD_NS_MAX, HYDRA_CHANNEL_RATIO_MAX). The batching
    # gates pair BM_BatchedPipeline batch:64 rows against their batch:1 twins
    # (batched must not be slower at sites=4) and hold the
    # BM_ChannelLowLoad virtual-time delivery p99 within 5% of the
    # unbatched twin (HYDRA_BATCH_RATIO_MAX, HYDRA_LOWLOAD_P99_MAX).
    # The fleet gate holds the BM_FleetOpenLoop 4-host/1-host
    # virtual-time goodput ratio at >= 2x (HYDRA_FLEET_SCALE_MIN).
    GATE_OUT="$BUILD_DIR/bench_gate.json"
    "$BUILD_DIR/bench/perf_micro" \
        --benchmark_filter='BM_ChannelThroughput|BM_HistogramRecord|BM_BatchedPipeline|BM_ChannelLowLoad|BM_FleetOpenLoop' \
        --benchmark_min_time=0.1 \
        --benchmark_repetitions=5 \
        --benchmark_enable_random_interleaving=true \
        --benchmark_report_aggregates_only=true \
        --benchmark_format=json > "$GATE_OUT"
    python3 scripts/bench_gate.py scripts/bench_baseline.json "$GATE_OUT"
    exit 0
fi

cd "$BUILD_DIR"
if [ "$TSAN" -eq 1 ]; then
    # Under TSan, only the threaded label matters: it exercises every
    # cross-thread structure (SPSC rings, the worker park/wake
    # protocol, the payload pool, atomic span ids) plus one full TiVo
    # scenario on the threaded engine.
    ctest -L threaded --output-on-failure
    # The chaos label adds the fault-injection paths under TSan: the
    # engine's seeded draws from network and worker threads, plus the
    # NIC-reset recovery protocol on the threaded engine.
    ctest -L chaos --output-on-failure
    exit 0
fi
if [ "$SANITIZE" -eq 1 ]; then
    # The obs label covers the subsystem with the most lock-free and
    # ring-buffer code — run it first for a fast sanitizer signal.
    ctest -L obs --output-on-failure
fi
# Fault-injection + recovery paths first: a broken restart protocol
# should fail loudly before the full matrix runs.
ctest -L chaos --output-on-failure
ctest --output-on-failure -j "$(nproc)"
