#include "src/sim/simulator.h"

#include <cstddef>
#include <cstring>
#include <memory>
#include <ostream>

#include <gtest/gtest.h>

#include "src/policy/hybrid.h"
#include "tests/print_bytes.h"

namespace faas {
namespace {

// A scriptable policy for exercising exact window semantics.
class ScriptedPolicy final : public KeepAlivePolicy {
 public:
  explicit ScriptedPolicy(PolicyDecision decision) : decision_(decision) {}

  void RecordIdleTime(Duration idle) override { recorded_.push_back(idle); }
  PolicyDecision NextWindows() override {
    ++decisions_;
    return decision_;
  }
  std::string name() const override { return "scripted"; }

  const std::vector<Duration>& recorded() const { return recorded_; }
  int decisions() const { return decisions_; }

 private:
  PolicyDecision decision_;
  std::vector<Duration> recorded_;
  int decisions_ = 0;
};

AppTrace MakeApp(std::vector<int64_t> invocation_minutes) {
  AppTrace app;
  app.owner_id = "o";
  app.app_id = "a";
  FunctionTrace function;
  function.function_id = "f";
  function.trigger = TriggerType::kHttp;
  for (int64_t m : invocation_minutes) {
    function.invocations.push_back(TimePoint(m * 60'000));
  }
  function.execution = {0.0, 0.0, 0.0,
                        static_cast<int64_t>(invocation_minutes.size())};
  app.functions.push_back(std::move(function));
  app.memory = {100.0, 90.0, 110.0, 1};
  return app;
}

const Duration kHorizon = Duration::Hours(10);

AppSimResult Simulate(const AppTrace& app, PolicyDecision decision,
                      SimulatorOptions options = {}) {
  ScriptedPolicy policy(decision);
  return ColdStartSimulator(options).SimulateApp(app, kHorizon, policy);
}

TEST(SimulatorTest, EmptyAppProducesNoResults) {
  AppTrace app = MakeApp({});
  app.functions.clear();
  FunctionTrace function;
  function.function_id = "f";
  app.functions.push_back(function);
  const AppSimResult result =
      Simulate(app, {Duration::Zero(), Duration::Minutes(10)});
  EXPECT_EQ(result.invocations, 0);
  EXPECT_EQ(result.cold_starts, 0);
}

TEST(SimulatorTest, FirstInvocationAlwaysCold) {
  const AppSimResult result = Simulate(
      MakeApp({0}), {Duration::Zero(), Duration::Minutes(10)},
      {.count_tail_residency = false});
  EXPECT_EQ(result.invocations, 1);
  EXPECT_EQ(result.cold_starts, 1);
  EXPECT_EQ(result.wasted_memory_minutes(), 0.0);
}

TEST(SimulatorTest, KeepAliveHitIsWarm) {
  // Invocations at t=0 and t=5min with a 10-minute keep-alive: warm, and the
  // 5 idle minutes are charged as waste.
  const AppSimResult result = Simulate(
      MakeApp({0, 5}), {Duration::Zero(), Duration::Minutes(10)},
      {.count_tail_residency = false});
  EXPECT_EQ(result.cold_starts, 1);
  EXPECT_DOUBLE_EQ(result.wasted_memory_minutes(), 5.0);
}

TEST(SimulatorTest, KeepAliveMissIsColdAndChargesWholeWindow) {
  // Gap of 30 minutes against a 10-minute keep-alive: the second invocation
  // is cold and the unused 10-minute window is pure waste.
  const AppSimResult result = Simulate(
      MakeApp({0, 30}), {Duration::Zero(), Duration::Minutes(10)},
      {.count_tail_residency = false});
  EXPECT_EQ(result.cold_starts, 2);
  EXPECT_DOUBLE_EQ(result.wasted_memory_minutes(), 10.0);
}

TEST(SimulatorTest, BoundaryHitAtExactKeepAliveEndIsWarm) {
  const AppSimResult result = Simulate(
      MakeApp({0, 10}), {Duration::Zero(), Duration::Minutes(10)},
      {.count_tail_residency = false});
  EXPECT_EQ(result.cold_starts, 1);
  EXPECT_DOUBLE_EQ(result.wasted_memory_minutes(), 10.0);
}

TEST(SimulatorTest, PrewarmHitIsWarmAndOnlyChargesAfterLoad) {
  // Pre-warm at 20 minutes, keep-alive 10: an invocation at 25 minutes is
  // warm and only 5 minutes (load -> invocation) are wasted.
  const AppSimResult result = Simulate(
      MakeApp({0, 25}),
      {Duration::Minutes(20), Duration::Minutes(10)},
      {.count_tail_residency = false});
  EXPECT_EQ(result.cold_starts, 1);
  EXPECT_EQ(result.prewarm_loads, 1);
  EXPECT_DOUBLE_EQ(result.wasted_memory_minutes(), 5.0);
}

TEST(SimulatorTest, InvocationBeforePrewarmIsColdButFree) {
  // Invocation at 10 minutes beats the pre-warm at 20: cold start, but no
  // memory was held during the gap, so zero waste.
  const AppSimResult result = Simulate(
      MakeApp({0, 10}),
      {Duration::Minutes(20), Duration::Minutes(10)},
      {.count_tail_residency = false});
  EXPECT_EQ(result.cold_starts, 2);
  EXPECT_EQ(result.prewarm_loads, 0);
  EXPECT_DOUBLE_EQ(result.wasted_memory_minutes(), 0.0);
}

TEST(SimulatorTest, InvocationAfterPrewarmWindowIsColdAndChargesWindow) {
  // Pre-warm at 20, keep-alive 10, invocation at 60: the 10-minute window
  // [20, 30] was loaded and wasted, and the invocation is cold.
  const AppSimResult result = Simulate(
      MakeApp({0, 60}),
      {Duration::Minutes(20), Duration::Minutes(10)},
      {.count_tail_residency = false});
  EXPECT_EQ(result.cold_starts, 2);
  EXPECT_EQ(result.prewarm_loads, 1);
  EXPECT_DOUBLE_EQ(result.wasted_memory_minutes(), 10.0);
}

TEST(SimulatorTest, NoUnloadKeepsWarmAndChargesAllIdle) {
  NoUnloadPolicy policy;
  const AppSimResult result =
      ColdStartSimulator({.count_tail_residency = false})
          .SimulateApp(MakeApp({0, 60, 120}), kHorizon, policy);
  EXPECT_EQ(result.cold_starts, 1);
  EXPECT_DOUBLE_EQ(result.wasted_memory_minutes(), 120.0);
}

TEST(SimulatorTest, TailResidencyChargedUntilWindowOrHorizon) {
  // Single invocation at t=0; keep-alive 10 minutes; horizon 10 hours.
  const AppSimResult with_tail = Simulate(
      MakeApp({0}), {Duration::Zero(), Duration::Minutes(10)});
  EXPECT_DOUBLE_EQ(with_tail.wasted_memory_minutes(), 10.0);
  // No-unload: charged to the end of the horizon.
  NoUnloadPolicy policy;
  const AppSimResult no_unload =
      ColdStartSimulator().SimulateApp(MakeApp({0}), kHorizon, policy);
  EXPECT_DOUBLE_EQ(no_unload.wasted_memory_minutes(), 600.0);
}

TEST(SimulatorTest, TailPrewarmChargesKeepAliveAfterPrewarmDelay) {
  // Last execution at t=0, pre-warm 20, keep-alive 10, horizon 10h: the
  // final pre-warmed window [20, 30] is wasted.
  const AppSimResult result = Simulate(
      MakeApp({0}), {Duration::Minutes(20), Duration::Minutes(10)});
  EXPECT_DOUBLE_EQ(result.wasted_memory_minutes(), 10.0);
  EXPECT_EQ(result.prewarm_loads, 1);
}

TEST(SimulatorTest, IdleTimesReportedToPolicy) {
  ScriptedPolicy policy({Duration::Zero(), Duration::Minutes(10)});
  ColdStartSimulator({.count_tail_residency = false})
      .SimulateApp(MakeApp({0, 5, 35}), kHorizon, policy);
  ASSERT_EQ(policy.recorded().size(), 2u);
  EXPECT_EQ(policy.recorded()[0], Duration::Minutes(5));
  EXPECT_EQ(policy.recorded()[1], Duration::Minutes(30));
  // One decision after each execution.
  EXPECT_EQ(policy.decisions(), 3);
}

TEST(SimulatorTest, ExecutionTimesShiftIdleMeasurement) {
  // With execution times on, the idle time is measured from execution end:
  // invocations at 0 and 10min with a 5-minute execution -> idle = 5min.
  AppTrace app = MakeApp({0, 10});
  app.functions[0].execution = {5 * 60'000.0, 5 * 60'000.0, 5 * 60'000.0, 2};
  ScriptedPolicy policy({Duration::Zero(), Duration::Minutes(6)});
  const AppSimResult result =
      ColdStartSimulator({.count_tail_residency = false,
                          .use_execution_times = true})
          .SimulateApp(app, kHorizon, policy);
  ASSERT_EQ(policy.recorded().size(), 1u);
  EXPECT_EQ(policy.recorded()[0], Duration::Minutes(5));
  EXPECT_EQ(result.cold_starts, 1);  // 5min idle <= 6min keep-alive.
  EXPECT_DOUBLE_EQ(result.wasted_memory_minutes(), 5.0);
}

TEST(SimulatorTest, ConcurrentInvocationDuringExecutionIsWarm) {
  AppTrace app = MakeApp({0, 2, 10});
  app.functions[0].execution = {4 * 60'000.0, 4 * 60'000.0, 4 * 60'000.0, 3};
  ScriptedPolicy policy({Duration::Zero(), Duration::Minutes(3)});
  const AppSimResult result =
      ColdStartSimulator({.count_tail_residency = false,
                          .use_execution_times = true})
          .SimulateApp(app, kHorizon, policy);
  // t=2 lands inside [0,4] execution: warm.  Execution extends to 2+4=6;
  // t=10 idles 4 > 3-minute keep-alive: cold.
  EXPECT_EQ(result.invocations, 3);
  EXPECT_EQ(result.cold_starts, 2);
}

TEST(SimulatorTest, MemoryWeightingScalesWaste) {
  AppTrace app = MakeApp({0, 5});
  app.memory.average_mb = 200.0;
  const AppSimResult unweighted = Simulate(
      app, {Duration::Zero(), Duration::Minutes(10)},
      {.count_tail_residency = false});
  const AppSimResult weighted = Simulate(
      app, {Duration::Zero(), Duration::Minutes(10)},
      {.count_tail_residency = false, .weight_by_memory = true});
  EXPECT_DOUBLE_EQ(weighted.wasted_memory_minutes(),
                   unweighted.wasted_memory_minutes() * 200.0);
}

TEST(SimulatorTest, MultiFunctionInvocationsMergeAtAppLevel) {
  AppTrace app = MakeApp({0, 20});
  FunctionTrace second;
  second.function_id = "g";
  second.trigger = TriggerType::kTimer;
  second.invocations = {TimePoint(10 * 60'000)};
  second.execution = {0.0, 0.0, 0.0, 1};
  app.functions.push_back(second);
  // Merged stream: 0, 10, 20 with 15-minute keep-alive -> only first cold.
  const AppSimResult result = Simulate(
      app, {Duration::Zero(), Duration::Minutes(15)},
      {.count_tail_residency = false});
  EXPECT_EQ(result.invocations, 3);
  EXPECT_EQ(result.cold_starts, 1);
}

TEST(SimulatorTest, HourlyTrackingCountsColdAndWarm) {
  // Invocations at 0, 5min (warm), 90min (cold) with 10-minute keep-alive.
  const AppTrace app = MakeApp({0, 5, 90});
  ScriptedPolicy policy({Duration::Zero(), Duration::Minutes(10)});
  const AppSimResult result =
      ColdStartSimulator({.count_tail_residency = false, .track_hourly = true})
          .SimulateApp(app, kHorizon, policy);
  ASSERT_EQ(result.invocations_per_hour.size(), 2u);
  EXPECT_EQ(result.invocations_per_hour[0], 2);
  EXPECT_EQ(result.invocations_per_hour[1], 1);
  EXPECT_EQ(result.cold_per_hour[0], 1);
  EXPECT_EQ(result.cold_per_hour[1], 1);
}

TEST(SimulatorTest, HourlyTrackingOffByDefault) {
  const AppSimResult result = Simulate(
      MakeApp({0, 5}), {Duration::Zero(), Duration::Minutes(10)});
  EXPECT_TRUE(result.invocations_per_hour.empty());
  EXPECT_TRUE(result.cold_per_hour.empty());
}

// Table-driven sweep of the full window semantics (Figure 9): for one idle
// period of `idle_minutes` against decision (pw, ka), the expected cold
// classification and charged waste.
struct WindowCase {
  int64_t prewarm_min;
  int64_t keepalive_min;
  int64_t idle_min;
  int expected_cold_starts;  // Including the always-cold first invocation.
  double expected_waste_min;
};

// Prints the parameter with its padding zeroed (see tests/print_bytes.h).
void PrintTo(const WindowCase& c, std::ostream* os) {
  static_assert(sizeof(WindowCase) == 40,
                "WindowCase changed: update the fields below");
  unsigned char bytes[sizeof(WindowCase)] = {};
  const auto put = [&bytes](size_t offset, const auto& field) {
    std::memcpy(bytes + offset, &field, sizeof field);
  };
  put(offsetof(WindowCase, prewarm_min), c.prewarm_min);
  put(offsetof(WindowCase, keepalive_min), c.keepalive_min);
  put(offsetof(WindowCase, idle_min), c.idle_min);
  put(offsetof(WindowCase, expected_cold_starts), c.expected_cold_starts);
  put(offsetof(WindowCase, expected_waste_min), c.expected_waste_min);
  PrintObjectBytes(bytes, sizeof bytes, os);
}

class WindowSemanticsTest : public ::testing::TestWithParam<WindowCase> {};

TEST_P(WindowSemanticsTest, MatchesFigureNine) {
  const WindowCase c = GetParam();
  const AppSimResult result = Simulate(
      MakeApp({0, c.idle_min}),
      {Duration::Minutes(c.prewarm_min), Duration::Minutes(c.keepalive_min)},
      {.count_tail_residency = false});
  EXPECT_EQ(result.cold_starts, c.expected_cold_starts);
  EXPECT_DOUBLE_EQ(result.wasted_memory_minutes(), c.expected_waste_min);
}

INSTANTIATE_TEST_SUITE_P(
    Windows, WindowSemanticsTest,
    ::testing::Values(
        // pw=0: classic keep-alive.  Warm inside, cold outside.
        WindowCase{0, 10, 1, 1, 1.0},    // Deep inside the window.
        WindowCase{0, 10, 10, 1, 10.0},  // Boundary hit.
        WindowCase{0, 10, 11, 2, 10.0},  // Just past: cold, window wasted.
        WindowCase{0, 0, 1, 2, 0.0},     // Zero keep-alive: always cold.
        // pw>0: unload, reload at pw, keep until pw+ka.
        WindowCase{20, 10, 19, 2, 0.0},   // Beat the pre-warm: cold, free.
        WindowCase{20, 10, 20, 1, 0.0},   // Exactly at load: warm, no idle.
        WindowCase{20, 10, 29, 1, 9.0},   // Inside window: warm.
        WindowCase{20, 10, 30, 1, 10.0},  // Boundary: warm, full window idle.
        WindowCase{20, 10, 31, 2, 10.0},  // Past window: cold, window wasted.
        // Degenerate pre-warm with zero keep-alive.
        WindowCase{20, 0, 25, 2, 0.0}));

TEST(SimulatorTest, ExecutionTimesCombineWithPrewarm) {
  // Exec 5 minutes; invocations at 0 and 30 -> idle 25 from exec end.
  // Pre-warm 10, keep-alive 10: idle 25 > 20, so cold with the window
  // wasted.
  AppTrace app = MakeApp({0, 30});
  app.functions[0].execution = {5 * 60'000.0, 5 * 60'000.0, 5 * 60'000.0, 2};
  ScriptedPolicy policy({Duration::Minutes(10), Duration::Minutes(10)});
  const AppSimResult result =
      ColdStartSimulator({.count_tail_residency = false,
                          .use_execution_times = true})
          .SimulateApp(app, kHorizon, policy);
  EXPECT_EQ(result.cold_starts, 2);
  EXPECT_EQ(result.prewarm_loads, 1);
  EXPECT_DOUBLE_EQ(result.wasted_memory_minutes(), 10.0);
}

TEST(SimulationResultTest, AggregatesAndPercentiles) {
  Trace trace;
  trace.horizon = Duration::Hours(2);
  for (int i = 0; i < 4; ++i) {
    AppTrace app = MakeApp({0, 30});
    app.app_id = "app" + std::to_string(i);
    trace.apps.push_back(app);
  }
  const FixedKeepAliveFactory factory(Duration::Minutes(45));
  const SimulationResult result = ColdStartSimulator().Run(trace, factory);
  EXPECT_EQ(result.policy_name, "fixed-45min");
  EXPECT_EQ(result.TotalInvocations(), 8);
  EXPECT_EQ(result.TotalColdStarts(), 4);  // First invocation per app.
  EXPECT_DOUBLE_EQ(result.AppColdStartPercentile(75.0), 50.0);
  EXPECT_DOUBLE_EQ(result.AppColdStartEcdf().FractionAtOrBelow(50.0), 1.0);
}

TEST(SimulationResultTest, AlwaysColdFractions) {
  Trace trace;
  trace.horizon = Duration::Hours(2);
  // App A: one invocation (always cold, excluded when filtering singles).
  AppTrace a = MakeApp({0});
  a.app_id = "a";
  // App B: two far-apart invocations -> 100% cold under 10-minute KA.
  AppTrace b = MakeApp({0, 60});
  b.app_id = "b";
  // App C: two close invocations -> 50% cold.
  AppTrace c = MakeApp({0, 5});
  c.app_id = "c";
  trace.apps = {a, b, c};
  const FixedKeepAliveFactory factory(Duration::Minutes(10));
  const SimulationResult result = ColdStartSimulator().Run(trace, factory);
  EXPECT_NEAR(result.FractionAppsAlwaysCold(false), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(result.FractionAppsAlwaysCold(true), 1.0 / 2.0, 1e-12);
}

TEST(SimulatorIntegrationTest, HybridLearnsPeriodicAppAndPrewarms) {
  // An app invoked exactly every 30 minutes: after the histogram becomes
  // representative the hybrid policy pre-warms just before each invocation,
  // yielding warm starts with minimal waste.
  std::vector<int64_t> minutes;
  for (int i = 0; i < 40; ++i) {
    minutes.push_back(static_cast<int64_t>(i) * 30);
  }
  const AppTrace app = MakeApp(minutes);
  HybridHistogramPolicy policy{HybridPolicyConfig{}};
  const AppSimResult result =
      ColdStartSimulator({.count_tail_residency = false})
          .SimulateApp(app, Duration::Hours(24), policy);
  EXPECT_EQ(result.cold_starts, 1);
  EXPECT_GT(result.prewarm_loads, 20);
  // Fixed 10-minute keep-alive on the same app: every invocation cold, and
  // 10 minutes wasted per idle gap.
  FixedKeepAlivePolicy fixed(Duration::Minutes(10));
  const AppSimResult fixed_result =
      ColdStartSimulator({.count_tail_residency = false})
          .SimulateApp(app, Duration::Hours(24), fixed);
  EXPECT_EQ(fixed_result.cold_starts, 40);
  EXPECT_LT(result.wasted_memory_minutes(), fixed_result.wasted_memory_minutes());
}

}  // namespace
}  // namespace faas
