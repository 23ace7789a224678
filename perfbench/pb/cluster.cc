// cluster_overload: ClusterSimulator::Replay of fixed-10 and the hybrid
// policy over a flash-crowd trace, with the network transport and the
// overload plane (CoDel admission queue) on.  The only workload for the
// event queue, controller dispatch, RPC transport and admission; the fleet
// is sized so the crowds push a share of activations through the admission
// queue and the queue drains them instead of shedding.
//
// Not listed in BENCHMARK.json: on this controller the conservation oracle
// fails on most seeds (perfbench/NOTES.md, "Controller ledger").  Run it
// with the benchmark binary itself, from the repository root:
//   .bench_build/perfbench/perfbench --workload cluster_overload --seed 1
//   --seconds 20 --trace 0
#include <cstdio>
#include <string>
#include <vector>

#include "pb/common.h"
#include "pb/oracles.h"
#include "pb/spans.h"
#include "src/cluster/cluster.h"
#include "src/common/rng.h"
#include "src/policy/hybrid.h"
#include "src/workload/arrival.h"
#include "src/workload/generator.h"

namespace perfbench {

namespace {

constexpr int kSetupRepeats = 3;

faas::Trace MakeClusterTrace(uint64_t seed) {
  faas::GeneratorConfig config;
  config.num_apps = 300;
  config.days = 1;
  config.instants_rate_cap_per_day = 1500.0;
  config.seed = kPolicyTraceSeed;
  config.peak_hour_utc = PeakHour(seed);
  faas::Trace trace = faas::WorkloadGenerator(config).Generate();
  faas::FlashCrowdSpec crowd;
  crowd.count = 3;
  crowd.duration = faas::Duration::Minutes(10);
  crowd.fraction = 0.3;
  crowd.events_per_function = 30.0;
  faas::Rng rng(MixSeed(seed, 12));
  faas::ApplyFlashCrowd(trace, crowd, rng);
  return trace;
}

faas::ClusterConfig MakeClusterConfig(uint64_t seed) {
  faas::ClusterConfig config;
  config.num_invokers = 6;
  config.invoker_memory_mb = 4096.0;
  config.seed = MixSeed(seed, 13);
  config.network.enabled = true;
  config.network.uplink.latency_median_ms = 1.0;
  config.network.downlink.latency_median_ms = 1.0;
  config.overload.admission.capacity = 4096;
  config.overload.admission.discipline = faas::AdmissionDiscipline::kCoDel;
  config.overload.admission.max_wait = faas::Duration::Minutes(5);
  config.overload.invoker_concurrency_cap = 24;
  return config;
}

struct Pair {
  faas::ClusterResult fixed;
  faas::ClusterResult hybrid;
  double fixed_ms = 0.0;
  double hybrid_ms = 0.0;
  double ms() const { return fixed_ms + hybrid_ms; }
  int64_t activations() const {
    return fixed.total_invocations + hybrid.total_invocations;
  }
};

Pair ReplayPair(const faas::ClusterConfig& config, const faas::Trace& trace,
                const faas::PolicyFactory& fixed,
                const faas::PolicyFactory& hybrid) {
  const faas::ClusterSimulator simulator(config);
  Pair pair;
  int64_t t0 = NowNs();
  pair.fixed = simulator.Replay(trace, fixed);
  pair.fixed_ms = static_cast<double>(NowNs() - t0) / 1e6;
  t0 = NowNs();
  pair.hybrid = simulator.Replay(trace, hybrid);
  pair.hybrid_ms = static_cast<double>(NowNs() - t0) / 1e6;
  return pair;
}

int64_t Failures(const faas::ClusterResult& r) {
  return r.total_dropped + r.total_rejected_outage + r.total_abandoned +
         r.total_lost;
}

}  // namespace

Report RunClusterOverload(const RunParams& params) {
  Report report;
  const faas::ClusterConfig config = MakeClusterConfig(params.seed);
  const faas::FixedKeepAliveFactory fixed(faas::Duration::Minutes(10));
  const faas::HybridPolicyFactory hybrid{faas::HybridPolicyConfig{}};
  report.Note("threads", "1 (the event-driven replay is sequential)");
  report.Note("population",
              "300 sampled apps x 1 day, rate cap 1500/day, 3 flash crowds");
  report.Note("cluster", "6 invokers x 4096 MB, cap 24, 1 ms links, "
                         "CoDel queue 4096 / 5 min");

  faas::Trace trace;
  std::vector<double> setup_s;
  std::vector<double> generate_ms;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const int64_t t0 = NowNs();
    trace = MakeClusterTrace(params.seed);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    generate_ms.push_back(setup_s.back() * 1e3);
  }
  const int64_t invocations = trace.TotalInvocations();

  std::vector<Pair> pairs;
  const auto check = [&](const Pair& pair) {
    for (const faas::ClusterResult* r : {&pair.fixed, &pair.hybrid}) {
      for (std::string& v : CheckClusterConservation(*r, invocations)) {
        report.Fail(std::move(v));
      }
      report.failed += Failures(*r);
      report.attempted += r->total_invocations;
    }
    if (!pairs.empty() &&
        (pair.hybrid.total_cold_starts != pairs.front().hybrid.total_cold_starts ||
         !(pair.hybrid.overload == pairs.front().hybrid.overload) ||
         !(pair.hybrid.faults == pairs.front().hybrid.faults))) {
      report.Fail("cluster replays differ between iterations of one run");
    }
  };

  if (!params.trace) {
    const std::vector<double> walls = RepeatFor(params.seconds, 3, [&]() {
      Pair pair = ReplayPair(config, trace, fixed, hybrid);
      check(pair);
      const double ms = pair.ms();
      if (pairs.empty()) {
        pairs.push_back(std::move(pair));
      }
      return ms;
    });
    const Pair& first = pairs.front();
    std::vector<double> rates;
    for (double ms : walls) {
      rates.push_back(static_cast<double>(first.activations()) / (ms / 1e3));
    }
    const auto n = static_cast<int64_t>(walls.size());
    report.Add("setup_s", Median(setup_s), "s", kSetupRepeats);
    report.Add("peak_rss_mb", PeakRssMb(), "MB", 1);
    report.Add("invocations_per_s", Median(rates), "1/s", n);
    report.Add("cold_start_p75_pct", first.hybrid.AppColdStartPercentile(75.0),
               "%", static_cast<int64_t>(first.hybrid.apps.size()));
    report.Add("p50_ms", Median(walls), "ms", n);
    report.Add("p99_ms", Percentile(walls, 99.0), "ms", n);
    std::printf("replay: %lld activations per policy, hybrid: %lld queued, "
                "%lld drained, %lld shed, %lld cold\n",
                static_cast<long long>(invocations),
                static_cast<long long>(first.hybrid.overload.queued),
                static_cast<long long>(first.hybrid.overload.drained),
                static_cast<long long>(first.hybrid.overload.TotalShed()),
                static_cast<long long>(first.hybrid.total_cold_starts));
    return report;
  }

  // Traced run: the same pair through TracedPolicyFactory, plus the pair
  // with the transport off and with the overload plane off; each plane's
  // cost is the full replay minus the replay without it.
  const TracedPolicyFactory traced_fixed(fixed, 0, /*app_spans=*/false);
  const TracedPolicyFactory traced_hybrid(hybrid, 1, /*app_spans=*/false);
  faas::ClusterConfig no_network = config;
  no_network.network = faas::NetworkConfig{};
  faas::ClusterConfig no_overload = config;
  no_overload.overload = faas::OverloadControlConfig{};
  SpanLog& log = SpanLog::Get();
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::vector<double> fixed_ms;
  std::vector<double> hybrid_ms;
  std::vector<double> transport_ms;
  std::vector<double> overload_ms;
  PolicyTally tally;
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(params.seconds * 1e9);
  while (traced_ms.size() < 2 || NowNs() < deadline) {
    Pair plain = ReplayPair(config, trace, fixed, hybrid);
    check(plain);
    const double plain_ms = plain.ms();
    untraced_ms.push_back(plain_ms);
    if (pairs.empty()) {
      pairs.push_back(std::move(plain));
    }
    log.Reset();
    Pair traced = ReplayPair(config, trace, traced_fixed, traced_hybrid);
    tally += log.CollectTally();
    check(traced);
    traced_ms.push_back(traced.ms());
    fixed_ms.push_back(traced.fixed_ms);
    hybrid_ms.push_back(traced.hybrid_ms);
    const Pair off_net = ReplayPair(no_network, trace, fixed, hybrid);
    const Pair off_overload = ReplayPair(no_overload, trace, fixed, hybrid);
    transport_ms.push_back(plain_ms - off_net.ms());
    overload_ms.push_back(plain_ms - off_overload.ms());
  }
  const Pair& first = pairs.front();
  const faas::ClusterResult& h = first.hybrid;
  const auto n = static_cast<int64_t>(traced_ms.size());
  report.Add("workload.generate_ms", Median(generate_ms), "ms", kSetupRepeats);
  report.Add("workload.ns_per_invocation",
             Median(generate_ms) * 1e6 / static_cast<double>(invocations), "ns",
             kSetupRepeats);
  report.Add("workload.invocations", static_cast<double>(invocations), "count",
             1);
  report.Add("policy.calls", static_cast<double>(tally.calls) / n, "count",
             tally.calls);
  report.Add("policy.histogram_ns_per_decision",
             tally.histogram_decisions > 0
                 ? static_cast<double>(tally.histogram_ns) /
                       static_cast<double>(tally.histogram_decisions)
                 : 0.0,
             "ns", tally.histogram_decisions);
  report.Add("policy.arima_ns_per_decision",
             tally.arima_decisions > 0
                 ? static_cast<double>(tally.arima_ns) /
                       static_cast<double>(tally.arima_decisions)
                 : 0.0,
             "ns", tally.arima_decisions);
  const int64_t decisions = tally.histogram_decisions + tally.arima_decisions;
  report.Add("policy.arima_decision_pct",
             decisions > 0 ? 100.0 * static_cast<double>(tally.arima_decisions) /
                                 static_cast<double>(decisions)
                           : 0.0,
             "%", decisions);
  report.Add("policy.state_bytes",
             tally.hybrid_apps > 0 ? static_cast<double>(tally.state_bytes) /
                                         static_cast<double>(tally.hybrid_apps)
                                   : 0.0,
             "B", tally.hybrid_apps);
  report.Add("policy.wasted_memory_pct",
             100.0 * h.resources.idle_mb_ms / first.fixed.resources.idle_mb_ms,
             "%", 2);
  report.Add("cluster.replay_fixed_ms", Median(fixed_ms), "ms", n);
  report.Add("cluster.replay_hybrid_ms", Median(hybrid_ms), "ms", n);
  report.Add("cluster.us_per_activation",
             Median(untraced_ms) * 1e3 /
                 static_cast<double>(first.activations()),
             "us", n);
  report.Add("cluster.transport_ms", Median(transport_ms), "ms", n);
  report.Add("cluster.overload_ms", Median(overload_ms), "ms", n);
  report.Add("cluster.net_messages_per_activation",
             static_cast<double>(h.faults.net_messages_sent) /
                 static_cast<double>(h.total_invocations),
             "msgs/activation", h.total_invocations);
  report.Add("cluster.queued", static_cast<double>(h.overload.queued), "count",
             1);
  report.Add("cluster.queue_wait_mean_ms", h.overload.MeanQueueWaitMs(), "ms",
             h.overload.drained);
  report.Add("cluster.shed", static_cast<double>(h.overload.TotalShed()),
             "count", 1);
  report.Add("cluster.cold_starts", static_cast<double>(h.total_cold_starts),
             "count", 1);
  report.Add("cluster.evictions", static_cast<double>(h.total_evictions),
             "count", 1);
  report.Add("cluster.prewarm_loads",
             static_cast<double>(h.total_prewarm_loads), "count", 1);
  report.Add("cluster.policy_overhead_us", h.policy_overhead_mean_us, "us",
             h.total_invocations);
  report.Add("cluster.sim_latency_p99_ms",
             Percentile(h.end_to_end_latency_ms, 99.0), "ms",
             static_cast<int64_t>(h.end_to_end_latency_ms.size()));
  const double untraced = Median(untraced_ms);
  report.Add("trace.overhead_pct",
             100.0 * (Median(traced_ms) - untraced) / untraced, "%", n);
  std::printf("account: replay pair %.1f ms = transport %.1f + overload "
              "plane %.1f + policy %.1f + rest of the event-driven replay "
              "%.1f\n",
              untraced, Median(transport_ms), Median(overload_ms),
              static_cast<double>(tally.histogram_ns + tally.arima_ns +
                                  tally.static_ns) /
                  static_cast<double>(n) / 1e6,
              untraced - Median(transport_ms) - Median(overload_ms) -
                  static_cast<double>(tally.histogram_ns + tally.arima_ns +
                                      tally.static_ns) /
                      static_cast<double>(n) / 1e6);
  return report;
}

}  // namespace perfbench
