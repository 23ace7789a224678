// Streaming sweep engine equivalence: EvaluatePoliciesStreamed must be
// bit-identical to the materialized EvaluatePolicies for every shard size,
// source width, engine thread count, and shard source — and robust to
// policies throwing mid-shard and to a chaos replay running concurrently
// (the ASan smoke the check.sh leg drives).

#include "src/sim/sweep.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/faults/fault_plan.h"
#include "src/policy/hybrid.h"
#include "src/policy/policy.h"
#include "src/trace/entity_index.h"
#include "src/workload/generator.h"

namespace faas {
namespace {

GeneratorConfig SmallConfig() {
  GeneratorConfig config;
  config.num_apps = 160;
  config.days = 2;
  config.seed = 77;
  config.instants_rate_cap_per_day = 1200;
  return config;
}

std::vector<const PolicyFactory*> Factories(
    const FixedKeepAliveFactory& fixed10, const FixedKeepAliveFactory& fixed60,
    const HybridPolicyFactory& hybrid) {
  return {&fixed10, &fixed60, &hybrid};
}

void ExpectPointsIdentical(const std::vector<PolicyPoint>& streamed,
                           const std::vector<PolicyPoint>& materialized) {
  ASSERT_EQ(streamed.size(), materialized.size());
  for (size_t p = 0; p < streamed.size(); ++p) {
    SCOPED_TRACE("policy " + materialized[p].name);
    EXPECT_EQ(streamed[p].name, materialized[p].name);
    // Bit-identical, not approximately equal.
    EXPECT_EQ(streamed[p].cold_start_p75, materialized[p].cold_start_p75);
    EXPECT_EQ(streamed[p].wasted_memory_minutes,
              materialized[p].wasted_memory_minutes);
    EXPECT_EQ(streamed[p].normalized_wasted_memory_pct,
              materialized[p].normalized_wasted_memory_pct);
    const SimulationResult& lhs = streamed[p].result;
    const SimulationResult& rhs = materialized[p].result;
    ASSERT_EQ(lhs.apps.size(), rhs.apps.size());
    for (size_t a = 0; a < lhs.apps.size(); ++a) {
      ASSERT_EQ(lhs.apps[a].app.value, rhs.apps[a].app.value) << "app " << a;
      ASSERT_EQ(lhs.apps[a].invocations, rhs.apps[a].invocations)
          << "app " << a;
      ASSERT_EQ(lhs.apps[a].cold_starts, rhs.apps[a].cold_starts)
          << "app " << a;
      ASSERT_EQ(lhs.apps[a].prewarm_loads, rhs.apps[a].prewarm_loads)
          << "app " << a;
      ASSERT_EQ(lhs.apps[a].wasted_memory_minutes(),
                rhs.apps[a].wasted_memory_minutes())
          << "app " << a;
      ASSERT_EQ(lhs.AppName(a), rhs.AppName(a)) << "app " << a;
    }
  }
}

TEST(SweepStreamTest, StreamedMatchesMaterializedAcrossSourceWidthAndThreads) {
  WorkloadGenerator gen(SmallConfig());
  const Trace trace = gen.Generate();
  const FixedKeepAliveFactory fixed10(Duration::Minutes(10));
  const FixedKeepAliveFactory fixed60(Duration::Minutes(60));
  const HybridPolicyFactory hybrid{HybridPolicyConfig{}};
  const auto factories = Factories(fixed10, fixed60, hybrid);

  SimulatorOptions options;
  options.num_threads = 1;
  const auto materialized = EvaluatePolicies(trace, factories, 0, options);

  // The source builds each shard on its own width, independent of the
  // engine's simulation width; every pairing must give the same tables.
  for (const int shard_apps : {1, 32, 500}) {
    for (const int source_threads : {1, 4}) {
      const TraceShardSource source(trace, shard_apps, source_threads);
      for (const int threads : {1, 4, 8}) {
        SCOPED_TRACE("shard_apps=" + std::to_string(shard_apps) +
                     " source_threads=" + std::to_string(source_threads) +
                     " threads=" + std::to_string(threads));
        SimulatorOptions streamed_options;
        streamed_options.num_threads = threads;
        const auto streamed =
            EvaluatePoliciesStreamed(source, factories, 0, streamed_options);
        ExpectPointsIdentical(streamed, materialized);
      }
    }
  }
}

TEST(SweepStreamTest, GeneratorSourceMatchesMaterializedGeneration) {
  // End-to-end: shards materialized straight from the generator (the full
  // trace is never built on this path) reproduce the materialized sweep.
  WorkloadGenerator full_gen(SmallConfig());
  const Trace trace = full_gen.Generate();
  const FixedKeepAliveFactory fixed10(Duration::Minutes(10));
  const FixedKeepAliveFactory fixed60(Duration::Minutes(60));
  const HybridPolicyFactory hybrid{HybridPolicyConfig{}};
  const auto factories = Factories(fixed10, fixed60, hybrid);
  const auto materialized = EvaluatePolicies(trace, factories, 0);

  WorkloadGenerator streaming_gen(SmallConfig());
  for (const int source_threads : {1, 4}) {
    SCOPED_TRACE("source_threads=" + std::to_string(source_threads));
    const GeneratorShardSource source(streaming_gen, /*shard_apps=*/25,
                                      source_threads);
    SimulatorOptions options;
    options.num_threads = 5 - source_threads;  // 4 / 1: widths differ.
    const auto streamed =
        EvaluatePoliciesStreamed(source, factories, 0, options);
    ExpectPointsIdentical(streamed, materialized);
  }
}

TEST(SweepStreamTest, ShardSizeDoesNotChangeResults) {
  WorkloadGenerator gen(SmallConfig());
  const Trace trace = gen.Generate();
  const FixedKeepAliveFactory fixed10(Duration::Minutes(10));
  const std::vector<const PolicyFactory*> factories = {&fixed10};
  const auto materialized = EvaluatePolicies(trace, factories, 0);
  for (const int shard_apps : {1, 13, 160, 500}) {
    SCOPED_TRACE("shard_apps=" + std::to_string(shard_apps));
    const TraceShardSource source(trace, shard_apps);
    const auto streamed = EvaluatePoliciesStreamed(source, factories, 0);
    ExpectPointsIdentical(streamed, materialized);
  }
}

TEST(SweepStreamTest, StreamedGlobalIdsAreDense) {
  WorkloadGenerator gen(SmallConfig());
  const Trace trace = gen.Generate();
  const FixedKeepAliveFactory fixed10(Duration::Minutes(10));
  const std::vector<const PolicyFactory*> factories = {&fixed10};
  const TraceShardSource source(trace, 7);
  const auto points = EvaluatePoliciesStreamed(source, factories, 0);
  ASSERT_EQ(points.size(), 1u);
  const SimulationResult& result = points[0].result;
  ASSERT_EQ(result.apps.size(), trace.apps.size());
  ASSERT_NE(result.entities, nullptr);
  for (size_t a = 0; a < result.apps.size(); ++a) {
    EXPECT_EQ(result.apps[a].app.value, static_cast<uint32_t>(a));
    EXPECT_EQ(result.AppName(a), trace.apps[a].app_id);
  }
}

// Policy whose instances throw on every simulated app; the engine must
// propagate the exception out of the shard's simulation region and unwind
// its recycled arena cleanly (ASan would flag a use-after-free).
class ThrowingPolicy final : public KeepAlivePolicy {
 public:
  void RecordIdleTime(Duration) override {}
  PolicyDecision NextWindows() override {
    throw std::runtime_error("injected policy failure");
  }
  std::string name() const override { return "throwing"; }
};

class ThrowingFactory final : public PolicyFactory {
 public:
  std::unique_ptr<KeepAlivePolicy> CreateForApp() const override {
    return std::make_unique<ThrowingPolicy>();
  }
  std::string name() const override { return "throwing"; }
};

TEST(SweepStreamTest, PolicyExceptionPropagatesAndPipelineUnwindsCleanly) {
  WorkloadGenerator gen(SmallConfig());
  const Trace trace = gen.Generate();
  const ThrowingFactory throwing;
  const std::vector<const PolicyFactory*> factories = {&throwing};
  const TraceShardSource source(trace, 16);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SimulatorOptions options;
    options.num_threads = threads;
    EXPECT_THROW(EvaluatePoliciesStreamed(source, factories, 0, options),
                 std::runtime_error);
  }
}

TEST(SweepStreamTest, StreamedSweepWithConcurrentChaosReplay) {
  // The check.sh ASan leg's smoke: a fault plan drives a cluster replay on
  // one thread while the streamed sweep builds and recycles its shard arena
  // on others, so leaks or races in arena recycling surface under an active
  // fault plan.
  GeneratorConfig config = SmallConfig();
  config.num_apps = 80;
  WorkloadGenerator gen(config);
  const Trace trace = gen.Generate();

  std::string error;
  const auto plan = FaultPlan::Parse(
      "crash:invoker=0,at=10m,down=5m; spike:at=30m,for=5m,x=4", &error);
  ASSERT_TRUE(plan.has_value()) << error;

  ClusterResult chaos_result;
  std::thread chaos([&] {
    ClusterConfig cluster_config;
    cluster_config.faults = *plan;
    const ClusterSimulator cluster(cluster_config);
    const FixedKeepAliveFactory fixed10(Duration::Minutes(10));
    chaos_result = cluster.Replay(trace, fixed10);
  });

  const FixedKeepAliveFactory fixed10(Duration::Minutes(10));
  const HybridPolicyFactory hybrid{HybridPolicyConfig{}};
  const std::vector<const PolicyFactory*> factories = {&fixed10, &hybrid};
  const auto materialized = EvaluatePolicies(trace, factories, 0);
  const TraceShardSource source(trace, 11);
  SimulatorOptions options;
  options.num_threads = 4;
  const auto streamed =
      EvaluatePoliciesStreamed(source, factories, 0, options);
  chaos.join();

  ExpectPointsIdentical(streamed, materialized);
  EXPECT_GT(chaos_result.total_invocations, 0);
}

TEST(SweepStreamDeathTest, TelemetryIsRejectedInStreamedMode) {
  WorkloadGenerator gen(SmallConfig());
  const Trace trace = gen.Generate();
  const FixedKeepAliveFactory fixed10(Duration::Minutes(10));
  const std::vector<const PolicyFactory*> factories = {&fixed10};
  const TraceShardSource source(trace, 32);
  Telemetry telemetry;
  SimulatorOptions options;
  options.telemetry = &telemetry;
  EXPECT_DEATH(EvaluatePoliciesStreamed(source, factories, 0, options),
               "telemetry");
}

}  // namespace
}  // namespace faas
