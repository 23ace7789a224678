// sweep_fixed and sweep_hybrid: the simulator's two sweep engines on the
// paper's policy-trace scale (1200 sampled apps x 7 days, daily rate capped
// at 4000 invocations, ~5 M invocations).
//
//   sweep_fixed   EvaluatePoliciesStreamed over generator shards, the
//                 Figure 14 fixed keep-alive grid.  Generation runs inside
//                 the timed region: a streamed-sweep user waits for it.
//                 Fixed policies take the simulator's static replay, so the
//                 generator, the shard compile and the pipeline do the work.
//   sweep_hybrid  EvaluatePolicies(const Trace&, ...) with fixed-10 as the
//                 baseline and the paper's hybrid policy; the trace is
//                 generated in set-up, compile is timed.  The hybrid replay
//                 dominates: this is the policy / ARIMA / thread-pool load.
//
// Untraced runs report their times scaled to the reference host
// (pb/probe.h): the host probe runs between timed iterations.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "pb/common.h"
#include "pb/oracles.h"
#include "pb/probe.h"
#include "pb/spans.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/policy/hybrid.h"
#include "src/sim/shard_source.h"
#include "src/sim/sweep.h"
#include "src/workload/generator.h"

namespace perfbench {

namespace {

constexpr int kShardApps = 128;
constexpr int kResidentShards = 2;
constexpr int kSetupRepeats = 3;
constexpr int kFixedBaseline = 1;  // fixed-10 in kFixedGridMinutes.
constexpr int kFixedGridMinutes[] = {5, 10, 20, 30, 45, 60, 90, 120};
constexpr size_t kOracleApps = 48;

faas::GeneratorConfig PolicyTraceConfig(uint64_t seed) {
  faas::GeneratorConfig config;
  config.num_apps = 1200;
  config.days = 7;
  config.instants_rate_cap_per_day = 4000.0;
  config.seed = kPolicyTraceSeed;
  config.peak_hour_utc = PeakHour(seed);
  return config;
}

faas::SimulatorOptions SweepOptions(int threads) {
  faas::SimulatorOptions options;
  options.num_threads = threads;
  return options;
}

std::vector<const faas::PolicyFactory*> Pointers(
    const std::vector<std::unique_ptr<faas::PolicyFactory>>& owned) {
  std::vector<const faas::PolicyFactory*> out;
  for (const auto& factory : owned) {
    out.push_back(factory.get());
  }
  return out;
}

std::vector<std::unique_ptr<faas::PolicyFactory>> Traced(
    const std::vector<const faas::PolicyFactory*>& factories) {
  std::vector<std::unique_ptr<faas::PolicyFactory>> out;
  for (size_t p = 0; p < factories.size(); ++p) {
    out.push_back(std::make_unique<TracedPolicyFactory>(
        *factories[p], static_cast<int32_t>(p), /*app_spans=*/true));
  }
  return out;
}

// Identity of a sweep's output, compared across iterations: every
// iteration of a run must produce the same tables.
struct SweepDigest {
  std::vector<double> p75;
  std::vector<double> waste;
  std::vector<int64_t> cold;
  bool operator==(const SweepDigest&) const = default;
};

SweepDigest Digest(const std::vector<faas::PolicyPoint>& points) {
  SweepDigest d;
  for (const faas::PolicyPoint& point : points) {
    d.p75.push_back(point.cold_start_p75);
    d.waste.push_back(point.wasted_memory_minutes);
    d.cold.push_back(point.result.TotalColdStarts());
  }
  return d;
}

// Per-layer sums over the traced iterations of one run.
struct LayerSums {
  int iterations = 0;
  double generate_ns = 0.0;
  double generated_invocations = 0.0;
  double compile_ns = 0.0;
  double arena_bytes = 0.0;  // Max over iterations of the resident bound.
  double fixed_self_ns = 0.0;
  double hybrid_self_ns = 0.0;
  double inline_fills = 0.0;
  double stall_ns = 0.0;
  double fold_ns = 0.0;
  double busy_pct = 0.0;
  double accounted_pct = 0.0;
  // Generation ran in set-up, outside the traced wall (sweep_hybrid).
  bool generate_in_setup = false;
  PolicyTally tally;
};

// Folds one traced iteration's spans into `sums`.  `main_tid` is the
// consumer thread; `hybrid_group` is the policy index of the hybrid policy
// (-1 if none); `main_compile_ns` is a compile the caller timed itself on
// the consumer thread (the materialized engine's CompiledTrace::Compile).
void Accumulate(LayerSums& sums, const std::vector<Span>& spans,
                const PolicyTally& tally, int threads, int64_t t0,
                int64_t t1, int32_t main_tid, int hybrid_group,
                size_t num_policies, int64_t main_compile_ns,
                int64_t main_arena_bytes) {
  ++sums.iterations;
  sums.tally += tally;
  std::vector<const Span*> replays;
  std::vector<const Span*> compiles;
  double traced_thread_ns = static_cast<double>(main_compile_ns);
  int64_t max_arena = main_arena_bytes;
  for (const Span& s : spans) {
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    traced_thread_ns += dur;
    switch (s.layer) {
      case Layer::kGenerate:
        sums.generate_ns += dur;
        sums.generated_invocations += static_cast<double>(s.arg);
        sums.inline_fills += s.tid == main_tid ? 1.0 : 0.0;
        break;
      case Layer::kCompile:
        sums.compile_ns += dur;
        max_arena = std::max(max_arena, s.bytes * kResidentShards);
        compiles.push_back(&s);
        break;
      case Layer::kReplay:
        (s.group == hybrid_group ? sums.hybrid_self_ns : sums.fixed_self_ns) +=
            static_cast<double>(s.self_ns());
        replays.push_back(&s);
        break;
    }
  }
  sums.compile_ns += static_cast<double>(main_compile_ns);
  sums.arena_bytes = std::max(sums.arena_bytes, static_cast<double>(max_arena));
  const double capacity = static_cast<double>(threads) *
                          static_cast<double>(t1 - t0);
  sums.accounted_pct += 100.0 * traced_thread_ns / capacity;
  if (replays.empty()) {
    return;
  }
  // Replay spans arrive sorted by start.  Shards are simulated one after
  // another (the engine joins each shard's parallel region before the
  // next), so the first apps_0 * P spans belong to shard 0, and so on.
  std::sort(compiles.begin(), compiles.end(),
            [](const Span* a, const Span* b) { return a->group < b->group; });
  int64_t region_begin = replays.front()->start_ns;
  int64_t region_end = 0;
  double replay_ns = 0.0;
  for (const Span* s : replays) {
    region_end = std::max(region_end, s->end_ns);
    replay_ns += static_cast<double>(s->end_ns - s->start_ns);
  }
  size_t next = 0;
  int64_t previous_end = -1;
  for (const Span* c : compiles) {
    const size_t cells = static_cast<size_t>(c->arg) * num_policies;
    if (cells == 0 || next + cells > replays.size()) {
      continue;
    }
    if (previous_end >= 0) {
      sums.stall_ns +=
          static_cast<double>(std::max<int64_t>(0, replays[next]->start_ns -
                                                       previous_end));
    }
    previous_end = 0;
    for (size_t i = next; i < next + cells; ++i) {
      previous_end = std::max(previous_end, replays[i]->end_ns);
    }
    next += cells;
  }
  sums.fold_ns += static_cast<double>(t1 - region_end);
  sums.busy_pct += 100.0 * replay_ns /
                   (static_cast<double>(threads) *
                    static_cast<double>(region_end - region_begin));
}

void ReportLayers(Report& report, const LayerSums& s, double policies,
                  double invocations_per_policy, int threads,
                  const std::vector<double>& traced_ms,
                  const std::vector<double>& untraced_ms) {
  const double n = std::max(1, s.iterations);
  const auto per_iter_ms = [&](double ns) { return ns / n / 1e6; };
  const int64_t samples = s.iterations;
  const double generated = s.generated_invocations / n;
  report.Add("workload.generate_ms", per_iter_ms(s.generate_ns), "ms", samples);
  report.Add("workload.ns_per_invocation",
             s.generated_invocations > 0 ? s.generate_ns / s.generated_invocations
                                         : 0.0,
             "ns", samples);
  report.Add("workload.invocations", generated > 0 ? generated
                                                   : invocations_per_policy,
             "count", samples);
  report.Add("sim.compile_ms", per_iter_ms(s.compile_ns), "ms", samples);
  report.Add("sim.arena_mb", s.arena_bytes / 1e6, "MB", samples);
  report.Add("sim.simulate_fixed_ms", per_iter_ms(s.fixed_self_ns), "ms",
             samples);
  report.Add("sim.simulate_hybrid_ms", per_iter_ms(s.hybrid_self_ns), "ms",
             samples);
  report.Add("sim.replay_ns_per_invocation",
             (s.fixed_self_ns + s.hybrid_self_ns) / n /
                 (invocations_per_policy * policies),
             "ns", samples);
  report.Add("sim.inline_fills", s.inline_fills / n, "count", samples);
  report.Add("sim.pipeline_stall_ms", per_iter_ms(s.stall_ns), "ms", samples);
  report.Add("sim.fold_ms", per_iter_ms(s.fold_ns), "ms", samples);
  const PolicyTally& t = s.tally;
  report.Add("policy.calls", static_cast<double>(t.calls) / n, "count",
             t.calls);
  report.Add("policy.histogram_ns_per_decision",
             t.histogram_decisions > 0
                 ? static_cast<double>(t.histogram_ns) /
                       static_cast<double>(t.histogram_decisions)
                 : 0.0,
             "ns", t.histogram_decisions);
  report.Add("policy.arima_ns_per_decision",
             t.arima_decisions > 0 ? static_cast<double>(t.arima_ns) /
                                         static_cast<double>(t.arima_decisions)
                                   : 0.0,
             "ns", t.arima_decisions);
  const int64_t hybrid_decisions = t.histogram_decisions + t.arima_decisions;
  report.Add("policy.arima_decision_pct",
             hybrid_decisions > 0 ? 100.0 * static_cast<double>(t.arima_decisions) /
                                        static_cast<double>(hybrid_decisions)
                                  : 0.0,
             "%", hybrid_decisions);
  report.Add("policy.state_bytes",
             t.hybrid_apps > 0 ? static_cast<double>(t.state_bytes) /
                                     static_cast<double>(t.hybrid_apps)
                               : 0.0,
             "B", t.hybrid_apps);
  report.Add("policy.slowest_app_ms", static_cast<double>(t.slowest_app_ns) / 1e6,
             "ms", samples);
  report.Add("common.pool_busy_pct", s.busy_pct / n, "%", samples);
  report.Add("trace.accounted_pct", s.accounted_pct / n, "%", samples);
  const double untraced = Median(untraced_ms);
  report.Add("trace.overhead_pct",
             100.0 * (Median(traced_ms) - untraced) / untraced, "%",
             static_cast<int64_t>(traced_ms.size()));

  // The wall-time account: thread capacity (threads x traced wall) split
  // into the layers' self times, with the remainder (idle + untraced).
  const double wall_ms = Median(traced_ms);
  const double capacity = threads * wall_ms;
  const double policy_ms =
      static_cast<double>(t.histogram_ns + t.arima_ns + t.static_ns) / n / 1e6;
  const double gen = s.generate_in_setup ? 0.0 : per_iter_ms(s.generate_ns);
  const double comp = per_iter_ms(s.compile_ns);
  const double sim = per_iter_ms(s.fixed_self_ns + s.hybrid_self_ns);
  std::printf(
      "account: %d threads x %.1f ms traced wall = %.1f thread-ms: "
      "workload.generate %.1f + sim.compile %.1f + sim.replay %.1f + "
      "policy %.1f + remainder (idle, untraced) %.1f\n",
      threads, wall_ms, capacity, gen, comp, sim, policy_ms,
      capacity - gen - comp - sim - policy_ms);
}

// End-to-end metrics of an untraced run.  Times are scaled to the
// reference host (pb/probe.h).
void AddSweepMetrics(Report& report, const ScaledTimes& setup,
                     const ScaledTimes& sweeps,
                     const std::vector<faas::PolicyPoint>& points,
                     size_t headline) {
  const double work = static_cast<double>(points[0].result.TotalInvocations()) *
                      static_cast<double>(points.size());
  const std::vector<double>& walls_ms = sweeps.scaled_ms;
  std::vector<double> rates;
  for (double ms : walls_ms) {
    rates.push_back(work / (ms / 1e3));
  }
  const auto n = static_cast<int64_t>(walls_ms.size());
  report.Add("setup_s", Median(setup.scaled_ms) / 1e3, "s",
             static_cast<int64_t>(setup.scaled_ms.size()));
  report.Add("peak_rss_mb", PeakRssMb(), "MB", 1);
  report.Add("invocations_per_s", Median(rates), "1/s", n);
  report.Add("cold_start_p75_pct", points[headline].cold_start_p75, "%",
             static_cast<int64_t>(points[headline].result.apps.size()));
  report.Add("p50_ms", Median(walls_ms), "ms", n);
  report.Add("p99_ms", Percentile(walls_ms, 99.0), "ms", n);
  report.attempted = static_cast<int64_t>(work) * n;
}

std::vector<size_t> SampleIndices(uint64_t seed, size_t population,
                                  size_t count) {
  faas::Rng rng(seed);
  std::vector<size_t> out;
  for (size_t i = 0; i < count && population > 0; ++i) {
    out.push_back(static_cast<size_t>(rng.UniformInt(population)));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

Report RunSweepFixed(const RunParams& params) {
  Report report;
  const faas::GeneratorConfig config = PolicyTraceConfig(params.seed);
  std::vector<std::unique_ptr<faas::PolicyFactory>> owned;
  for (int minutes : kFixedGridMinutes) {
    owned.push_back(std::make_unique<faas::FixedKeepAliveFactory>(
        faas::Duration::Minutes(minutes)));
  }
  const std::vector<const faas::PolicyFactory*> factories = Pointers(owned);
  const faas::SimulatorOptions options = SweepOptions(params.threads);
  faas::StreamingSweepOptions stream;
  stream.max_resident_shards = kResidentShards;
  report.Note("threads", std::to_string(params.threads));
  report.Note("population", "1200 sampled apps x 7 days, rate cap 4000/day");
  report.Note("policies", "fixed 5,10,20,30,45,60,90,120 min (Fig 14)");
  report.Note("shards", "128 apps, 2 resident");

  // Set-up: pass 1 of the generator (plans and rate ranking), the shared
  // pool's workers, and one warm-up sweep so arenas, allocator and caches
  // are filled before timing.  Repeated; the median is reported.
  const HostProbe probe(params.threads);
  std::unique_ptr<faas::WorkloadGenerator> generator;
  const ScaledTimes setup = RepeatScaled(probe, 0.0, kSetupRepeats, [&] {
    const int64_t t0 = NowNs();
    generator = std::make_unique<faas::WorkloadGenerator>(config);
    generator->PreparePlans();
    faas::ThreadPool::Shared();
    const faas::GeneratorShardSource warmup(*generator, kShardApps);
    faas::EvaluatePoliciesStreamed(warmup, factories, kFixedBaseline, options,
                                   stream);
    return static_cast<double>(NowNs() - t0) / 1e6;
  });

  std::vector<faas::PolicyPoint> points;
  std::vector<SweepDigest> digests;
  const auto untraced_iteration = [&]() {
    const faas::GeneratorShardSource source(*generator, kShardApps);
    const int64_t t0 = NowNs();
    points = faas::EvaluatePoliciesStreamed(source, factories, kFixedBaseline,
                                            options, stream);
    const double ms = static_cast<double>(NowNs() - t0) / 1e6;
    digests.push_back(Digest(points));
    return ms;
  };

  if (!params.trace) {
    const ScaledTimes sweeps =
        RepeatScaled(probe, params.seconds, 3, untraced_iteration);
    setup.Print("set-up");
    sweeps.Print("sweep");
    AddSweepMetrics(report, setup, sweeps, points, kFixedBaseline);
  } else {
    const std::vector<std::unique_ptr<faas::PolicyFactory>> traced_owned =
        Traced(factories);
    const std::vector<const faas::PolicyFactory*> traced =
        Pointers(traced_owned);
    SpanLog& log = SpanLog::Get();
    const int32_t main_tid = log.ThreadOrdinal();
    LayerSums sums;
    std::vector<double> untraced_ms;
    std::vector<double> traced_ms;
    std::vector<Span> last_spans;
    const int64_t deadline =
        NowNs() + static_cast<int64_t>(params.seconds * 1e9);
    while (traced_ms.size() < 2 || NowNs() < deadline) {
      untraced_ms.push_back(untraced_iteration());
      const TracedShardSource source(*generator, kShardApps);
      log.Reset();
      const int64_t t0 = NowNs();
      points = faas::EvaluatePoliciesStreamed(source, traced, kFixedBaseline,
                                              options, stream);
      const int64_t t1 = NowNs();
      traced_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      digests.push_back(Digest(points));
      last_spans = log.CollectSpans();
      Accumulate(sums, last_spans, log.CollectTally(), params.threads, t0, t1,
                 main_tid, /*hybrid_group=*/-1, factories.size(), 0, 0);
    }
    ReportLayers(report, sums, static_cast<double>(factories.size()),
                 static_cast<double>(points[0].result.TotalInvocations()),
                 params.threads, traced_ms, untraced_ms);
    report.attempted = points[0].result.TotalInvocations() *
                       static_cast<int64_t>(factories.size()) *
                       static_cast<int64_t>(digests.size());
    if (!params.trace_out.empty() &&
        !SpanLog::WriteChromeTrace(last_spans, params.trace_out)) {
      report.Fail("cannot write span log to " + params.trace_out);
    }
  }

  // Oracle: every iteration produced the same tables, and a seeded sample
  // of apps matches an independent fixed keep-alive recomputation under
  // every policy of the grid.
  for (const SweepDigest& d : digests) {
    if (!(d == digests.front())) {
      report.Fail("sweep tables differ between iterations of one run");
      break;
    }
  }
  std::vector<faas::AppTrace> sample;
  for (size_t i : SampleIndices(MixSeed(params.seed, 2),
                                static_cast<size_t>(config.num_apps),
                                kOracleApps)) {
    faas::Trace shard = generator->GenerateShard(static_cast<int>(i),
                                                 static_cast<int>(i) + 1);
    for (faas::AppTrace& app : shard.apps) {
      sample.push_back(std::move(app));
    }
  }
  for (size_t p = 0; p < points.size(); ++p) {
    for (std::string& v : CheckFixedKeepAlive(
             points[p].result, sample, config.Horizon(),
             faas::Duration::Minutes(kFixedGridMinutes[p]))) {
      report.Fail(std::move(v));
    }
  }
  report.Note("oracle_apps", std::to_string(sample.size()));
  return report;
}

Report RunSweepHybrid(const RunParams& params) {
  Report report;
  const faas::GeneratorConfig config = PolicyTraceConfig(params.seed);
  std::vector<std::unique_ptr<faas::PolicyFactory>> owned;
  owned.push_back(
      std::make_unique<faas::FixedKeepAliveFactory>(faas::Duration::Minutes(10)));
  owned.push_back(
      std::make_unique<faas::HybridPolicyFactory>(faas::HybridPolicyConfig{}));
  const std::vector<const faas::PolicyFactory*> factories = Pointers(owned);
  constexpr size_t kHybrid = 1;
  const faas::SimulatorOptions options = SweepOptions(params.threads);
  report.Note("threads", std::to_string(params.threads));
  report.Note("population", "1200 sampled apps x 7 days, rate cap 4000/day");
  report.Note("policies", "fixed-10 (baseline), hybrid [5,99] 4h CV 2");

  // Set-up: full trace generation (one thread) plus the shared pool.
  faas::Trace trace;
  std::vector<double> generate_ms;
  const ScaledTimes setup = RepeatScaled(HostProbe(1), 0.0, kSetupRepeats, [&] {
    const int64_t t0 = NowNs();
    trace = faas::WorkloadGenerator(config).Generate();
    generate_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    faas::ThreadPool::Shared();
    return static_cast<double>(NowNs() - t0) / 1e6;
  });
  const int64_t invocations = trace.TotalInvocations();

  std::vector<faas::PolicyPoint> points;
  std::vector<SweepDigest> digests;
  const auto untraced_iteration = [&]() {
    const int64_t t0 = NowNs();
    points = faas::EvaluatePolicies(trace, factories, 0, options);
    const double ms = static_cast<double>(NowNs() - t0) / 1e6;
    digests.push_back(Digest(points));
    return ms;
  };

  if (!params.trace) {
    const ScaledTimes sweeps = RepeatScaled(HostProbe(params.threads),
                                            params.seconds, 3,
                                            untraced_iteration);
    setup.Print("set-up");
    sweeps.Print("sweep");
    AddSweepMetrics(report, setup, sweeps, points, kHybrid);
  } else {
    const std::vector<std::unique_ptr<faas::PolicyFactory>> traced_owned =
        Traced(factories);
    const std::vector<const faas::PolicyFactory*> traced =
        Pointers(traced_owned);
    SpanLog& log = SpanLog::Get();
    const int32_t main_tid = log.ThreadOrdinal();
    LayerSums sums;
    std::vector<double> untraced_ms;
    std::vector<double> traced_ms;
    std::vector<Span> last_spans;
    const int64_t deadline =
        NowNs() + static_cast<int64_t>(params.seconds * 1e9);
    while (traced_ms.size() < 2 || NowNs() < deadline) {
      untraced_ms.push_back(untraced_iteration());
      log.Reset();
      // The Trace overload of EvaluatePolicies is exactly Compile followed
      // by the CompiledTrace overload; calling the two here times each.
      const int64_t t0 = NowNs();
      const faas::CompiledTrace compiled =
          faas::CompiledTrace::Compile(trace, options.num_threads);
      const int64_t t_compiled = NowNs();
      points = faas::EvaluatePolicies(compiled, traced, 0, options);
      const int64_t t1 = NowNs();
      traced_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      digests.push_back(Digest(points));
      last_spans = log.CollectSpans();
      Accumulate(sums, last_spans, log.CollectTally(), params.threads, t0, t1,
                 main_tid, static_cast<int>(kHybrid), factories.size(),
                 t_compiled - t0, ArenaBytes(compiled));
    }
    sums.generate_in_setup = true;
    sums.generate_ns = Median(generate_ms) * 1e6 * sums.iterations;
    sums.generated_invocations =
        static_cast<double>(invocations) * sums.iterations;
    ReportLayers(report, sums, static_cast<double>(factories.size()),
                 static_cast<double>(invocations), params.threads, traced_ms,
                 untraced_ms);
    report.Add("policy.wasted_memory_pct",
               points[kHybrid].normalized_wasted_memory_pct, "%",
               static_cast<int64_t>(points[kHybrid].result.apps.size()));
    report.attempted = invocations * static_cast<int64_t>(factories.size()) *
                       static_cast<int64_t>(digests.size());
    if (!params.trace_out.empty() &&
        !SpanLog::WriteChromeTrace(last_spans, params.trace_out)) {
      report.Fail("cannot write span log to " + params.trace_out);
    }
  }

  // Oracle: identical tables across iterations, and a seeded sample of apps
  // matches the legacy in-place-merge replay under both policies.
  for (const SweepDigest& d : digests) {
    if (!(d == digests.front())) {
      report.Fail("sweep tables differ between iterations of one run");
      break;
    }
  }
  const std::vector<size_t> sample =
      SampleIndices(MixSeed(params.seed, 3), trace.apps.size(), kOracleApps);
  for (size_t p = 0; p < points.size(); ++p) {
    for (std::string& v : CheckAgainstLegacyReplay(points[p].result, trace,
                                                   sample, *factories[p])) {
      report.Fail(std::move(v));
    }
  }
  report.Note("oracle_apps", std::to_string(sample.size()));
  return report;
}

}  // namespace perfbench
