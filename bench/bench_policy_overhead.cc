// Section 5.3 policy-overhead microbenchmarks (google-benchmark).
// Paper numbers for context: their Scala controller added 835.7us per
// invocation end-to-end; the initial ARIMA fit took 26.9ms and refits 5.3ms.
// These benchmarks measure the corresponding code paths in this
// implementation: histogram update, window computation, full per-invocation
// policy step, and ARIMA fitting.
//
// The BM_*Telemetry{Off,On} pairs measure the telemetry subsystem's cost on
// the simulation hot paths: Off runs with null instrument pointers (the
// zero-cost branch), On runs with metrics and tracing fully enabled.  The
// acceptance bar is <5% overhead on the end-to-end replay loops.

#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "src/arima/auto_arima.h"
#include "src/arima/series.h"
#include "src/cluster/cluster.h"
#include "src/common/rng.h"
#include "src/policy/hybrid.h"
#include "src/policy/policy.h"
#include "src/sim/sweep.h"
#include "src/telemetry/telemetry.h"
#include "src/workload/generator.h"

namespace faas {
namespace {

void BM_HistogramAdd(benchmark::State& state) {
  RangeLimitedHistogram histogram(Duration::Minutes(1), 240);
  Rng rng(1);
  std::vector<Duration> its(1024);
  for (auto& it : its) {
    it = Duration::FromMinutesF(rng.UniformDouble(0.0, 300.0));
  }
  size_t i = 0;
  for (auto _ : state) {
    histogram.Add(its[i++ & 1023]);
  }
}
BENCHMARK(BM_HistogramAdd);

void BM_HistogramPercentiles(benchmark::State& state) {
  RangeLimitedHistogram histogram(Duration::Minutes(1), 240);
  Rng rng(2);
  for (int i = 0; i < 10'000; ++i) {
    histogram.Add(Duration::FromMinutesF(rng.UniformDouble(0.0, 240.0)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(histogram.PercentileLowerEdge(5.0));
    benchmark::DoNotOptimize(histogram.PercentileUpperEdge(99.0));
  }
}
BENCHMARK(BM_HistogramPercentiles);

// The per-invocation policy step the paper charges at 835.7us in Scala:
// record the idle time, recompute the windows.
void BM_HybridPolicyStep(benchmark::State& state) {
  HybridHistogramPolicy policy{HybridPolicyConfig{}};
  Rng rng(3);
  // Pre-train with a concentrated pattern so the histogram branch runs.
  for (int i = 0; i < 100; ++i) {
    policy.RecordIdleTime(Duration::Minutes(30));
  }
  for (auto _ : state) {
    policy.RecordIdleTime(
        Duration::FromMinutesF(29.0 + rng.UniformDouble(0.0, 2.0)));
    benchmark::DoNotOptimize(policy.NextWindows());
  }
}
BENCHMARK(BM_HybridPolicyStep);

void BM_FixedPolicyStep(benchmark::State& state) {
  FixedKeepAlivePolicy policy(Duration::Minutes(10));
  for (auto _ : state) {
    policy.RecordIdleTime(Duration::Minutes(5));
    benchmark::DoNotOptimize(policy.NextWindows());
  }
}
BENCHMARK(BM_FixedPolicyStep);

// The standard-keep-alive branch (empty histogram).
void BM_HybridPolicyStepColdStartPath(benchmark::State& state) {
  HybridHistogramPolicy policy{HybridPolicyConfig{}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.NextWindows());
  }
}
BENCHMARK(BM_HybridPolicyStepColdStartPath);

// ARIMA: initial fit on an idle-time series (paper: 26.9ms in Python).
void BM_ArimaInitialFit(benchmark::State& state) {
  Rng rng(4);
  std::vector<double> its(static_cast<size_t>(state.range(0)));
  for (double& it : its) {
    it = 300.0 + rng.UniformDouble(-20.0, 20.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(AutoArima(its));
  }
}
BENCHMARK(BM_ArimaInitialFit)->Arg(16)->Arg(50)->Arg(200);

// The stationarity/invertibility check that Nelder-Mead runs on every CSS
// objective evaluation, on the polynomials that reach its slow path: a root
// (or conjugate pair) within 1e-3 of the unit circle, its relative distance
// from Durand-Kerner's threshold 1 + 1e-8 log-uniform over 1e-15..1e-4, as
// in the hybrid sweep.  Degrees 1, 2 and 3 come in the sweep's proportions
// (about 1 : 3 : 6); a degree-3 polynomial adds a real root well outside.
void BM_RootCheckNearThreshold(benchmark::State& state) {
  constexpr double kThreshold = 1.0 + 1e-8;
  Rng rng(6);
  std::vector<std::vector<double>> polys(4096);
  for (std::vector<double>& c : polys) {
    const double offset = std::pow(10.0, rng.UniformDouble(-15.0, -4.0));
    const double radius =
        kThreshold * (1.0 + (rng.Bernoulli(0.5) ? offset : -offset));
    const double draw = rng.UniformDouble(0.0, 10.0);
    if (draw < 1.0) {
      c = {(rng.Bernoulli(0.5) ? 1.0 : -1.0) / radius};
      continue;
    }
    // (1 - z/rho)(1 - z/conj(rho)) = 1 - 2 cos(theta)/r z + z^2/r^2.
    const double cos_theta = std::cos(rng.UniformDouble(0.05, 3.1));
    const double b = 2.0 * cos_theta / radius;
    const double a = 1.0 / (radius * radius);
    if (draw < 4.0) {
      c = {b, -a};
      continue;
    }
    // Times (1 - z/x) for a real root x with 2 <= |x| <= 10.
    const double inv_x =
        (rng.Bernoulli(0.5) ? 1.0 : -1.0) / rng.UniformDouble(2.0, 10.0);
    c = {b + inv_x, -a - b * inv_x, a * inv_x};
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RootsOutsideUnitCircle(polys[i++ & 4095]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RootCheckNearThreshold);

// The ARIMA branch of a full policy decision (refit per invocation, as the
// paper does for OOB-heavy apps; their refit took 5.3ms).
void BM_HybridPolicyStepArimaPath(benchmark::State& state) {
  HybridHistogramPolicy policy{HybridPolicyConfig{}};
  Rng rng(5);
  for (int i = 0; i < 30; ++i) {
    policy.RecordIdleTime(
        Duration::FromMinutesF(300.0 + rng.UniformDouble(-10.0, 10.0)));
  }
  for (auto _ : state) {
    policy.RecordIdleTime(
        Duration::FromMinutesF(300.0 + rng.UniformDouble(-10.0, 10.0)));
    benchmark::DoNotOptimize(policy.NextWindows());
  }
}
BENCHMARK(BM_HybridPolicyStepArimaPath);

// Per-application metadata cost (challenge #4): report bytes as a counter.
void BM_PolicyFootprint(benchmark::State& state) {
  for (auto _ : state) {
    HybridHistogramPolicy policy{HybridPolicyConfig{}};
    benchmark::DoNotOptimize(policy.ApproximateSizeBytes());
  }
  HybridHistogramPolicy policy{HybridPolicyConfig{}};
  state.counters["bytes_per_app"] =
      static_cast<double>(policy.ApproximateSizeBytes());
}
BENCHMARK(BM_PolicyFootprint);

// --- Telemetry overhead -------------------------------------------------

const Trace& OverheadTrace() {
  // Large enough that per-run fixed costs (instrument registration, first
  // shard/ring allocation) amortize away and the steady-state replay loop
  // dominates, as it does in a real policy_eval run.
  static const Trace trace = [] {
    GeneratorConfig config;
    config.num_apps = 200;
    config.days = 1;
    config.seed = 99;
    return WorkloadGenerator(config).Generate();
  }();
  return trace;
}

void BM_SweepReplayTelemetryOff(benchmark::State& state) {
  const Trace& trace = OverheadTrace();
  const HybridPolicyFactory hybrid{HybridPolicyConfig{}};
  const std::vector<const PolicyFactory*> factories = {&hybrid};
  SimulatorOptions options;
  options.num_threads = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvaluatePolicies(trace, factories, 0, options));
  }
}
BENCHMARK(BM_SweepReplayTelemetryOff)->Unit(benchmark::kMillisecond);

void BM_SweepReplayTelemetryOn(benchmark::State& state) {
  const Trace& trace = OverheadTrace();
  const HybridPolicyFactory hybrid{HybridPolicyConfig{}};
  const std::vector<const PolicyFactory*> factories = {&hybrid};
  for (auto _ : state) {
    // A fresh Telemetry per run mirrors one policy_eval invocation and keeps
    // span storage from accumulating across iterations.
    Telemetry telemetry;
    SimulatorOptions options;
    options.num_threads = 1;
    options.telemetry = &telemetry;
    benchmark::DoNotOptimize(EvaluatePolicies(trace, factories, 0, options));
  }
}
BENCHMARK(BM_SweepReplayTelemetryOn)->Unit(benchmark::kMillisecond);

void BM_ClusterReplayTelemetryOff(benchmark::State& state) {
  const Trace& trace = OverheadTrace();
  const FixedKeepAliveFactory fixed10(Duration::Minutes(10));
  ClusterConfig config;
  config.num_invokers = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ClusterSimulator(config).Replay(trace, fixed10));
  }
}
BENCHMARK(BM_ClusterReplayTelemetryOff)->Unit(benchmark::kMillisecond);

void BM_ClusterReplayTelemetryOn(benchmark::State& state) {
  const Trace& trace = OverheadTrace();
  const FixedKeepAliveFactory fixed10(Duration::Minutes(10));
  for (auto _ : state) {
    Telemetry telemetry;
    ClusterConfig config;
    config.num_invokers = 4;
    config.telemetry = &telemetry;
    benchmark::DoNotOptimize(ClusterSimulator(config).Replay(trace, fixed10));
  }
}
BENCHMARK(BM_ClusterReplayTelemetryOn)->Unit(benchmark::kMillisecond);

// Raw instrument costs, for attributing any overhead seen above.
void BM_TelemetryCounterInc(benchmark::State& state) {
  MetricsRegistry registry;
  const CounterId id = registry.AddCounter("bench_total", "bench");
  for (auto _ : state) {
    registry.Inc(id);
  }
}
BENCHMARK(BM_TelemetryCounterInc);

void BM_TelemetryHistogramObserve(benchmark::State& state) {
  MetricsRegistry registry;
  const HistogramId id =
      registry.AddHistogram("bench_ms", "bench", {1, 10, 100, 1000});
  double value = 0.0;
  for (auto _ : state) {
    registry.Observe(id, value);
    value = value < 2000.0 ? value + 1.0 : 0.0;
  }
}
BENCHMARK(BM_TelemetryHistogramObserve);

void BM_TracerRecordSpan(benchmark::State& state) {
  Tracer tracer;
  SpanRecord span;
  span.dur_ms = 5;
  span.name = static_cast<int16_t>(SpanName::kActivation);
  for (auto _ : state) {
    tracer.Record(span);
    ++span.start_ms;
  }
}
BENCHMARK(BM_TracerRecordSpan);

}  // namespace
}  // namespace faas

BENCHMARK_MAIN();
