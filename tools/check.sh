#!/usr/bin/env bash
# Repo verification: tier-1 build + full test suite, then the concurrency
# tests (thread pool, parallel-for, sweep engine, streamed sweep, shard
# generation and compiled trace — whose per-app materialize and merge loops
# run on the pool — and CPU topology) plus the chaos-engine, network,
# overload-control, and telemetry tests rebuilt and re-run under
# ThreadSanitizer, the chaos/overload/controller/telemetry/streaming/
# compiled-trace tests once more under UndefinedBehaviorSanitizer, and the
# interning/trace/cluster/streaming tests under AddressSanitizer (the intern
# tables hand out string_views into deque storage, and the streamed sweep
# recycles its shard arena while a chaos replay runs concurrently — ASan is
# the pass that would catch a dangling view or a freed arena; the
# SweepStreamTest.StreamedSweepWithConcurrentChaosReplay smoke drives both
# at once).  The serving leg (wire codec, timer wheel, latency recorder, and
# the live loopback suite with its multi-loop epoll threads and graceful
# shutdown) runs under both TSan and ASan: TSan watches the Snapshot/Stop
# cross-thread paths, ASan the decoder stash and per-connection buffers.
# The resource-ledger suite (cost-accounting merges, sim-vs-cluster charge
# identity, thread-count determinism) rides in every sanitizer leg.  The
# ARIMA suites (root checks, whose Durand-Kerner and step-down work arrays
# are fixed-size and indexed by degree; CSS fits; auto_arima goldens) and
# the Nelder-Mead suite, whose scratch buffers are swapped into the simplex,
# ride the UBSan and ASan legs, as do the shared overload mechanisms
# (overload_core_test: the circuit breaker's ring indices and epoch
# arithmetic, the hedge trigger, the admission-queue discipline), the
# scripted-clock admission-bridge suite (bridge_test), and the arrival and
# generator suites (arrival_test, generator_test: the diurnal profile's
# minute-of-week band index and the generator's golden stream digest; not
# GeneratorCalibrationTest, whose twelve test processes each regenerate a
# 1500-app week to check statistics: about 20 CPU-seconds under ASan, at
# the start of the leg, beside its wall-clock serving tests).
# After tier-1, the four cluster benches regenerate their result CSVs into
# a temporary directory and each must match the committed file byte for
# byte: the controller's placement, overload and network paths have no
# other end-to-end golden.  The step writes no tracked file.
# Then the determinism tests (names matching
# BitIdentical|Determinis|AcrossThreads) run 20 times each, stopping at the
# first failure, so a flaky thread-count dependence shows up as a red check
# rather than a rare one; then 20 times more with FAAS_POOL_THREADS at
# twice the core count, so the shared pool runs more workers than there are
# cores.  The serve-chaos suite (chaos-plan grammar, idempotency index, recovery-ledger
# merges, plus the loopback watchdog/degrade/drain-under-stall tests) rides
# the TSan and ASan serving legs: TSan crosses the watchdog timers with
# Snapshot/Stop, ASan watches the frozen-key and dedupe-shard storage.
# --quick adds a pareto_sweep smoke over a small generated trace and a
# 2-second serve_chaos hostile-client battery (garbage, truncation,
# half-frame RST, slowloris, oversize) against an in-process loopback
# server.
#
# Usage: tools/check.sh [--quick] [--skip-tsan] [--skip-ubsan] [--skip-asan]
#   --quick   tier-1 build + ctest + pareto_sweep smoke; skips sanitizers
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"
SKIP_TSAN=0
SKIP_UBSAN=0
SKIP_ASAN=0
for arg in "$@"; do
  case "${arg}" in
    --quick) SKIP_TSAN=1; SKIP_UBSAN=1; SKIP_ASAN=1 ;;
    --skip-tsan) SKIP_TSAN=1 ;;
    --skip-ubsan) SKIP_UBSAN=1 ;;
    --skip-asan) SKIP_ASAN=1 ;;
    *) echo "unknown argument: ${arg}" >&2; exit 2 ;;
  esac
done

echo "== tier-1: build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j "${JOBS}"
(cd build && ctest --output-on-failure -j "${JOBS}")
echo "== tier-1: cluster result CSVs regenerate byte-identical =="
CLUSTER_CSV_DIR="$(mktemp -d)"
trap 'rm -rf "${CLUSTER_CSV_DIR}"' EXIT
for bench in fig20_cluster chaos_cluster overload_cluster network_cluster; do
  FAAS_BENCH_RESULTS_DIR="${CLUSTER_CSV_DIR}" FAAS_BENCH_NETWORK_JSON=off \
      "./build/bench/bench_${bench}" >/dev/null
  cmp "results/${bench}.csv" "${CLUSTER_CSV_DIR}/${bench}.csv"
done
echo "== tier-1: determinism tests, repeated until failure (20x) =="
(cd build && ctest --output-on-failure -j "${JOBS}" --no-tests=error \
    --repeat until-fail:20 -R 'BitIdentical|Determinis|AcrossThreads')
echo "== tier-1: determinism tests, shared pool at twice the cores (20x) =="
(cd build && FAAS_POOL_THREADS=$((2 * JOBS)) ctest --output-on-failure \
    -j "${JOBS}" --no-tests=error \
    --repeat until-fail:20 -R 'BitIdentical|Determinis|AcrossThreads')

if [[ "${SKIP_TSAN}" == "1" && "${SKIP_UBSAN}" == "1" && "${SKIP_ASAN}" == "1" ]]; then
  echo "== quick: pareto_sweep smoke (streamed 120-app frontier) =="
  ./build/tools/pareto_sweep --gen-apps 120 --gen-days 1 --threads 2 \
      --shard-apps 32 --out build/pareto_smoke.csv >/dev/null
  head -1 build/pareto_smoke.csv | grep -q \
      'policy,goodput_pct,cold_start_p75' || {
    echo "pareto_sweep smoke: unexpected CSV header" >&2; exit 1; }
  echo "== quick: serve_chaos smoke (hostile clients vs loopback server) =="
  ./build/tools/serve_chaos --self --duration-ms 2000
fi

if [[ "${SKIP_TSAN}" == "1" ]]; then
  echo "== skipping TSan pass =="
else
  echo "== TSan: concurrency + streaming + chaos + overload + telemetry tests =="
  cmake -B build-tsan -S . -DFAAS_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "${JOBS}" --target \
      thread_pool_test parallel_test sweep_test sweep_stream_test \
      generator_shard_test cpu_topology_test \
      compiled_trace_test faults_test network_test overload_test \
      controller_test telemetry_metrics_test telemetry_tracer_test telemetry_export_test \
      telemetry_integration_test \
      serve_codec_test serve_loopback_test serve_chaos_test timer_wheel_test \
      latency_recorder_test resource_ledger_test
  # gtest_discover_tests registers suite names (not target names), so match
  # the suites those binaries contain.
  (cd build-tsan && ctest --output-on-failure -j "${JOBS}" --no-tests=error \
      -R 'ThreadPool|ParallelFor|ParallelSimulation|Sweep|SweepStream|GeneratorShard|CpuTopology|CompiledTrace|CompiledReplay|FaultPlan|NetFaultPlan|NetworkModel|NetworkCluster|ChaosCluster|Overload|AdmissionQueue|CircuitBreaker|Hedge|FlashCrowd|Controller|TelemetryMetrics|TelemetryTracer|TelemetryExport|TelemetryIntegration|ServeCodec|ServeLoopback|ServeChaosPlan|IdempotencyIndex|RecoveryLedger|TimerWheel|LatencyRecorder|ResourceLedger')
fi

if [[ "${SKIP_UBSAN}" == "1" ]]; then
  echo "== skipping UBSan pass =="
else
  echo "== UBSan: chaos + overload + controller + telemetry + streaming tests =="
  cmake -B build-ubsan -S . -DFAAS_SANITIZE=undefined >/dev/null
  cmake --build build-ubsan -j "${JOBS}" --target \
      faults_test network_test overload_test controller_test cluster_test \
      sweep_stream_test generator_shard_test compiled_trace_test \
      telemetry_metrics_test telemetry_tracer_test telemetry_export_test \
      telemetry_integration_test resource_ledger_test \
      series_test arima_model_test auto_arima_test nelder_mead_test \
      overload_core_test bridge_test arrival_test generator_test
  (cd build-ubsan && ctest --output-on-failure -j "${JOBS}" --no-tests=error \
      -R 'FaultPlan|NetFaultPlan|NetworkModel|NetworkCluster|NetworkConservation|ChaosCluster|Overload|AdmissionQueue|AdmissionBridge|CircuitBreaker|Hedge|FlashCrowd|Controller|Cluster|SweepStream|GeneratorShard|CompiledTrace|TelemetryMetrics|TelemetryTracer|TelemetryExport|TelemetryIntegration|ResourceLedger|RootsTest|RootsAgreement|AutoArima|ArimaModel|NelderMead|DiurnalProfile|PoissonArrivals|BurstyArrivals|GeneratorGolden|GeneratorEdgeCase')
fi

if [[ "${SKIP_ASAN}" == "1" ]]; then
  echo "== skipping ASan pass =="
else
  echo "== ASan: interning + trace + cluster + overload + streaming tests =="
  cmake -B build-asan -S . -DFAAS_SANITIZE=address >/dev/null
  cmake --build build-asan -j "${JOBS}" --target \
      intern_test trace_csv_test transform_test compiled_trace_test \
      sweep_test sweep_stream_test generator_shard_test \
      faults_test network_test controller_test cluster_test overload_test \
      telemetry_metrics_test telemetry_tracer_test \
      serve_codec_test serve_loopback_test serve_chaos_test timer_wheel_test \
      latency_recorder_test resource_ledger_test \
      series_test arima_model_test auto_arima_test nelder_mead_test \
      overload_core_test bridge_test arrival_test generator_test
  # SweepStream covers the faults + streaming smoke
  # (StreamedSweepWithConcurrentChaosReplay): a chaos replay with an active
  # fault plan runs while the streamed sweep recycles its shard arena.
  (cd build-asan && ctest --output-on-failure -j "${JOBS}" --no-tests=error \
      -R 'Intern|EntityIndex|Csv|Transform|CompiledTrace|CompiledReplay|Sweep|SweepStream|GeneratorShard|FaultPlan|NetFaultPlan|NetworkModel|NetworkCluster|NetworkConservation|ChaosCluster|Controller|Cluster|Overload|AdmissionQueue|AdmissionBridge|CircuitBreaker|Hedge|FlashCrowd|TelemetryMetrics|TelemetryTracer|ServeCodec|ServeLoopback|ServeChaosPlan|IdempotencyIndex|RecoveryLedger|TimerWheel|LatencyRecorder|ResourceLedger|RootsTest|RootsAgreement|AutoArima|ArimaModel|NelderMead|DiurnalProfile|PoissonArrivals|BurstyArrivals|GeneratorGolden|GeneratorEdgeCase')
fi

echo "== all checks passed =="
