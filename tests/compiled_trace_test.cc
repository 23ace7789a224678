#include "src/sim/compiled_trace.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <memory>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "src/policy/hybrid.h"
#include "src/policy/policy.h"
#include "src/sim/simulator.h"
#include "src/workload/generator.h"
#include "tests/print_bytes.h"

namespace faas {

// Prints the parameter of CompiledReplayEquivalenceTest with its padding
// zeroed (see tests/print_bytes.h).
void PrintTo(const SimulatorOptions& options, std::ostream* os) {
  static_assert(sizeof(SimulatorOptions) == 24,
                "SimulatorOptions changed: update the fields below");
  unsigned char bytes[sizeof(SimulatorOptions)] = {};
  const auto put = [&bytes](size_t offset, const auto& field) {
    std::memcpy(bytes + offset, &field, sizeof field);
  };
  put(offsetof(SimulatorOptions, count_tail_residency),
      options.count_tail_residency);
  put(offsetof(SimulatorOptions, use_execution_times),
      options.use_execution_times);
  put(offsetof(SimulatorOptions, weight_by_memory), options.weight_by_memory);
  put(offsetof(SimulatorOptions, num_threads), options.num_threads);
  put(offsetof(SimulatorOptions, track_hourly), options.track_hourly);
  put(offsetof(SimulatorOptions, telemetry), options.telemetry);
  PrintObjectBytes(bytes, sizeof bytes, os);
}

namespace {

Trace MakeSeededTrace() {
  GeneratorConfig config;
  config.num_apps = 150;
  config.days = 2;
  config.seed = 77;
  config.instants_rate_cap_per_day = 1500.0;
  return WorkloadGenerator(config).Generate();
}

void ExpectSameAppResult(const AppSimResult& legacy,
                         const AppSimResult& compiled) {
  // The legacy per-AppTrace path has no entity index, so `app` is stamped
  // only on the compiled path; compare the numeric payload.
  EXPECT_EQ(legacy.invocations, compiled.invocations);
  EXPECT_EQ(legacy.cold_starts, compiled.cold_starts);
  EXPECT_EQ(legacy.prewarm_loads, compiled.prewarm_loads);
  EXPECT_DOUBLE_EQ(legacy.wasted_memory_minutes(),
                   compiled.wasted_memory_minutes());
  EXPECT_EQ(legacy.cold_per_hour, compiled.cold_per_hour);
  EXPECT_EQ(legacy.invocations_per_hour, compiled.invocations_per_hour);
}

TEST(CompiledTraceTest, ArenasAreContiguousAndSorted) {
  const Trace trace = MakeSeededTrace();
  const CompiledTrace compiled = CompiledTrace::Compile(trace);

  ASSERT_EQ(compiled.num_apps(), trace.apps.size());
  EXPECT_EQ(compiled.total_invocations(), trace.TotalInvocations());
  EXPECT_EQ(compiled.times_ms.size(), compiled.exec_ms.size());
  EXPECT_EQ(compiled.horizon, trace.horizon);

  size_t expected_begin = 0;
  for (size_t a = 0; a < compiled.num_apps(); ++a) {
    const CompiledTrace::AppSpan span = compiled.spans[a];
    EXPECT_EQ(span.begin, expected_begin) << "app " << a;
    EXPECT_EQ(static_cast<int64_t>(span.size()),
              trace.apps[a].TotalInvocations());
    EXPECT_TRUE(std::is_sorted(compiled.times_ms.begin() + span.begin,
                               compiled.times_ms.begin() + span.end))
        << "app " << a;
    EXPECT_EQ(compiled.AppName(a), trace.apps[a].app_id);
    EXPECT_DOUBLE_EQ(compiled.memory_mb[a], trace.apps[a].memory.average_mb);
    expected_begin = span.end;
  }
  EXPECT_EQ(expected_begin, compiled.times_ms.size());
}

TEST(CompiledTraceTest, ParallelCompileMatchesSequential) {
  const Trace trace = MakeSeededTrace();
  const CompiledTrace sequential = CompiledTrace::Compile(trace, 1);
  const CompiledTrace parallel = CompiledTrace::Compile(trace, 4);
  EXPECT_EQ(sequential.times_ms, parallel.times_ms);
  EXPECT_EQ(sequential.exec_ms, parallel.exec_ms);
  ASSERT_EQ(sequential.spans.size(), parallel.spans.size());
  for (size_t a = 0; a < sequential.spans.size(); ++a) {
    EXPECT_EQ(sequential.spans[a].begin, parallel.spans[a].begin);
    EXPECT_EQ(sequential.spans[a].end, parallel.spans[a].end);
  }
}

TEST(CompiledTraceTest, CompileRangeIntoMatchesCompileAtAnyWidth) {
  Trace trace = MakeSeededTrace();
  // Two timer functions with the same period in one app: every instant is
  // a cross-function tie, so exec_ms order depends on the tie-break.
  AppTrace timers;
  timers.owner_id = "owner-ties";
  timers.app_id = "app-ties";
  timers.memory = {128.0, 120.0, 140.0, 1};
  for (const double exec_ms : {100.0, 250.0}) {
    FunctionTrace function;
    function.function_id = "fn-" + std::to_string(static_cast<int>(exec_ms));
    function.trigger = TriggerType::kTimer;
    function.execution.average_ms = exec_ms;
    for (int64_t t = 0; t < trace.horizon.millis(); t += 5 * 60 * 1000) {
      function.invocations.emplace_back(t);
    }
    timers.functions.push_back(std::move(function));
  }
  trace.apps.insert(trace.apps.begin() + 40, std::move(timers));
  trace.entities.reset();
  const CompiledTrace reference = CompiledTrace::Compile(trace, 1);

  for (const int threads : {1, 4}) {
    for (const size_t shard_apps : {size_t{1}, size_t{7}, size_t{64},
                                    trace.apps.size()}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " shard_apps=" + std::to_string(shard_apps));
      CompiledTrace arena;  // Recycled across the ranges, as when streaming.
      for (size_t begin = 0; begin < trace.apps.size(); begin += shard_apps) {
        const size_t end = std::min(begin + shard_apps, trace.apps.size());
        CompiledTrace::CompileRangeInto(trace, begin, end, &arena, threads);
        ASSERT_EQ(arena.num_apps(), end - begin);
        EXPECT_EQ(arena.horizon, trace.horizon);
        for (size_t a = 0; a < arena.num_apps(); ++a) {
          const CompiledTrace::AppSpan got = arena.spans[a];
          const CompiledTrace::AppSpan want = reference.spans[begin + a];
          ASSERT_EQ(got.size(), want.size()) << "app " << begin + a;
          EXPECT_TRUE(std::equal(arena.times_ms.begin() + got.begin,
                                 arena.times_ms.begin() + got.end,
                                 reference.times_ms.begin() + want.begin))
              << "app " << begin + a;
          EXPECT_TRUE(std::equal(arena.exec_ms.begin() + got.begin,
                                 arena.exec_ms.begin() + got.end,
                                 reference.exec_ms.begin() + want.begin))
              << "app " << begin + a;
          EXPECT_EQ(arena.memory_mb[a], reference.memory_mb[begin + a]);
          EXPECT_EQ(arena.AppName(a), reference.AppName(begin + a));
        }
        EXPECT_EQ(arena.times_ms.size(),
                  reference.spans[end - 1].end - reference.spans[begin].begin);
      }
    }
  }
}

class CompiledReplayEquivalenceTest
    : public ::testing::TestWithParam<SimulatorOptions> {};

TEST_P(CompiledReplayEquivalenceTest, MatchesLegacyPerAppMerge) {
  const Trace trace = MakeSeededTrace();
  const CompiledTrace compiled = CompiledTrace::Compile(trace);
  const ColdStartSimulator simulator(GetParam());
  const FixedKeepAliveFactory fixed(Duration::Minutes(10));
  const HybridPolicyFactory hybrid{HybridPolicyConfig{}};

  for (const PolicyFactory* factory :
       {static_cast<const PolicyFactory*>(&fixed),
        static_cast<const PolicyFactory*>(&hybrid)}) {
    for (size_t a = 0; a < trace.apps.size(); ++a) {
      const std::unique_ptr<KeepAlivePolicy> legacy_policy =
          factory->CreateForApp();
      const AppSimResult legacy = simulator.SimulateApp(
          trace.apps[a], trace.horizon, *legacy_policy);
      const std::unique_ptr<KeepAlivePolicy> compiled_policy =
          factory->CreateForApp();
      const AppSimResult via_arena =
          simulator.SimulateApp(compiled, a, *compiled_policy);
      ExpectSameAppResult(legacy, via_arena);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Options, CompiledReplayEquivalenceTest,
    ::testing::Values(SimulatorOptions{},
                      SimulatorOptions{.use_execution_times = true},
                      SimulatorOptions{.use_execution_times = true,
                                       .weight_by_memory = true},
                      SimulatorOptions{.count_tail_residency = false,
                                       .track_hourly = true}));

TEST(CompiledTraceTest, RunOverloadsAgree) {
  const Trace trace = MakeSeededTrace();
  const CompiledTrace compiled = CompiledTrace::Compile(trace);
  SimulatorOptions options;
  options.use_execution_times = true;
  const ColdStartSimulator simulator(options);
  const FixedKeepAliveFactory factory(Duration::Minutes(20));

  const SimulationResult from_trace = simulator.Run(trace, factory);
  const SimulationResult from_compiled = simulator.Run(compiled, factory);
  ASSERT_EQ(from_trace.apps.size(), from_compiled.apps.size());
  for (size_t a = 0; a < from_trace.apps.size(); ++a) {
    ExpectSameAppResult(from_trace.apps[a], from_compiled.apps[a]);
  }
  EXPECT_EQ(from_trace.TotalColdStarts(), from_compiled.TotalColdStarts());
  EXPECT_DOUBLE_EQ(from_trace.TotalWastedMemoryMinutes(),
                   from_compiled.TotalWastedMemoryMinutes());
}

TEST(CompiledTraceTest, EmptyAppYieldsEmptyResult) {
  Trace trace;
  trace.horizon = Duration::Hours(1);
  AppTrace app;
  app.owner_id = "o";
  app.app_id = "empty";
  app.memory = {64.0, 60.0, 70.0, 1};
  trace.apps.push_back(app);
  const CompiledTrace compiled = CompiledTrace::Compile(trace);
  ASSERT_EQ(compiled.num_apps(), 1u);
  EXPECT_EQ(compiled.spans[0].size(), 0u);

  const ColdStartSimulator simulator;
  FixedKeepAlivePolicy policy(Duration::Minutes(10));
  const AppSimResult result = simulator.SimulateApp(compiled, 0, policy);
  EXPECT_EQ(result.invocations, 0);
  EXPECT_EQ(result.cold_starts, 0);
  EXPECT_DOUBLE_EQ(result.wasted_memory_minutes(), 0.0);
}

}  // namespace
}  // namespace faas
