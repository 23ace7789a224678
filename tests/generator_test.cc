#include "src/workload/generator.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/characterization/characterization.h"

namespace faas {
namespace {

// One moderately sized trace shared by the calibration tests (generation is
// the expensive part).
class GeneratorCalibrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorConfig config;
    config.num_apps = 1500;
    config.days = 7;
    config.seed = 777;
    trace_ = new Trace(WorkloadGenerator(config).Generate());
  }
  static void TearDownTestSuite() {
    delete trace_;
    trace_ = nullptr;
  }

  static const Trace& trace() { return *trace_; }

 private:
  static const Trace* trace_;
};

const Trace* GeneratorCalibrationTest::trace_ = nullptr;

TEST_F(GeneratorCalibrationTest, TraceIsStructurallyValid) {
  EXPECT_FALSE(trace().Validate().has_value())
      << trace().Validate().value_or("");
  EXPECT_GT(trace().apps.size(), 1000u);
  EXPECT_GT(trace().TotalInvocations(), 100'000);
}

TEST_F(GeneratorCalibrationTest, DeterministicForSameSeed) {
  GeneratorConfig config;
  config.num_apps = 20;
  config.days = 1;
  config.seed = 5;
  const Trace a = WorkloadGenerator(config).Generate();
  const Trace b = WorkloadGenerator(config).Generate();
  ASSERT_EQ(a.apps.size(), b.apps.size());
  EXPECT_EQ(a.TotalInvocations(), b.TotalInvocations());
  for (size_t i = 0; i < a.apps.size(); ++i) {
    ASSERT_EQ(a.apps[i].functions.size(), b.apps[i].functions.size());
    EXPECT_EQ(a.apps[i].memory.average_mb, b.apps[i].memory.average_mb);
    for (size_t f = 0; f < a.apps[i].functions.size(); ++f) {
      EXPECT_EQ(a.apps[i].functions[f].invocations,
                b.apps[i].functions[f].invocations);
    }
  }
}

TEST_F(GeneratorCalibrationTest, FunctionsPerAppMatchesFigure1) {
  const FunctionsPerAppResult result = AnalyzeFunctionsPerApp(trace());
  // Paper: 54% single-function, 95% at most 10.  The generated trace drops
  // never-invoked functions, which shifts these up slightly; keep loose.
  EXPECT_NEAR(result.FractionAppsWithAtMost(1), 0.54, 0.08);
  EXPECT_NEAR(result.FractionAppsWithAtMost(10), 0.95, 0.04);
}

TEST_F(GeneratorCalibrationTest, TriggerSharesRoughlyMatchFigure2) {
  const TriggerShares shares = AnalyzeTriggerShares(trace());
  // %Functions: HTTP dominates (paper 55%), timers ~15.6%.
  EXPECT_NEAR(shares.percent_functions[static_cast<size_t>(TriggerType::kHttp)],
              55.0, 12.0);
  EXPECT_NEAR(
      shares.percent_functions[static_cast<size_t>(TriggerType::kTimer)],
      15.6, 8.0);
  // %Invocations: queue+event carry disproportionate load (paper ~58%
  // combined vs ~17% of functions).
  const double queue_event_invocations =
      shares.percent_invocations[static_cast<size_t>(TriggerType::kQueue)] +
      shares.percent_invocations[static_cast<size_t>(TriggerType::kEvent)];
  const double queue_event_functions =
      shares.percent_functions[static_cast<size_t>(TriggerType::kQueue)] +
      shares.percent_functions[static_cast<size_t>(TriggerType::kEvent)];
  EXPECT_GT(queue_event_invocations, queue_event_functions);
}

TEST_F(GeneratorCalibrationTest, TriggerCombosMatchFigure3) {
  const TriggerComboResult result = AnalyzeTriggerCombos(trace());
  // HTTP-only is the dominant combo (paper: 43.27%).
  ASSERT_FALSE(result.combos.empty());
  EXPECT_EQ(result.combos[0].combo, "H");
  EXPECT_NEAR(result.combos[0].percent_apps, 43.27, 6.0);
  // 64% of apps have at least one HTTP trigger; 29% at least one timer.
  EXPECT_NEAR(
      result.percent_apps_with_trigger[static_cast<size_t>(TriggerType::kHttp)],
      64.0, 8.0);
  EXPECT_NEAR(result.percent_apps_with_trigger[static_cast<size_t>(
                  TriggerType::kTimer)],
              29.0, 8.0);
}

TEST_F(GeneratorCalibrationTest, InvocationRatesMatchFigure5Anchors) {
  const InvocationRateResult result = AnalyzeInvocationRates(trace());
  // 45% of apps at most hourly, 81% at most minutely.  Rate capping and
  // zero-invocation app dropping blur these a few points.
  EXPECT_NEAR(result.fraction_apps_at_most_hourly, 0.45, 0.08);
  EXPECT_NEAR(result.fraction_apps_at_most_minutely, 0.81, 0.06);
  // Popularity skew: the most popular 19% of apps carry the vast majority
  // of invocations (99.6% uncapped; capping the trace softens it).
  EXPECT_GT(result.invocation_share_of_minutely_apps, 0.80);
}

TEST_F(GeneratorCalibrationTest, UncappedRateSamplesSpanEightOrders) {
  GeneratorConfig config;
  config.seed = 11;
  WorkloadGenerator generator(config);
  const std::vector<double> rates = generator.SampleDailyRates(100'000);
  double lo = 1e18;
  double hi = 0.0;
  for (double r : rates) {
    lo = std::min(lo, r);
    hi = std::max(hi, r);
  }
  EXPECT_GT(std::log10(hi / lo), 8.0);
}

TEST_F(GeneratorCalibrationTest, IatCvShapesMatchFigure6) {
  const IatCvResult result = AnalyzeIatCv(trace());
  ASSERT_FALSE(result.only_timer_apps.empty());
  ASSERT_FALSE(result.no_timer_apps.empty());
  // ~50% of only-timer apps have CV ~ 0 (single periodic timer).
  EXPECT_NEAR(result.only_timer_apps.FractionAtOrBelow(0.05), 0.5, 0.25);
  // A minority (paper ~10%) of no-timer apps are near-periodic.
  const double no_timer_periodic = result.no_timer_apps.FractionAtOrBelow(0.05);
  EXPECT_LT(no_timer_periodic, 0.3);
  // A sizeable share of all apps has CV > 1 (paper: ~40%).
  const double over_one = 1.0 - result.all_apps.FractionAtOrBelow(1.0);
  EXPECT_GT(over_one, 0.25);
}

TEST_F(GeneratorCalibrationTest, ExecutionTimesMatchFigure7) {
  const ExecutionTimeResult result = AnalyzeExecutionTimes(trace());
  // 50% of functions run under ~1s on average; 96% under 60s.
  EXPECT_NEAR(result.average_seconds.FractionAtOrBelow(1.0), 0.5, 0.12);
  EXPECT_GT(result.average_seconds.FractionAtOrBelow(60.0), 0.88);
  // The MLE fit should land near the paper's log-normal parameters.
  EXPECT_NEAR(result.average_fit.mu, -0.38, 0.5);
  EXPECT_NEAR(result.average_fit.sigma, 2.36, 0.4);
}

TEST_F(GeneratorCalibrationTest, MemoryMatchesFigure8) {
  const MemoryResult result = AnalyzeMemory(trace());
  // Average-memory curve: the Burr fit's median is ~140MB.
  const double median = result.average_mb.Quantile(0.5);
  EXPECT_NEAR(median, 140.0, 30.0);
  // Maximum-memory curve: 50% <= ~170MB, 90% <= ~400MB (paper's read-offs).
  EXPECT_NEAR(result.maximum_mb.Quantile(0.5), 170.0, 45.0);
  EXPECT_NEAR(result.maximum_mb.Quantile(0.9), 400.0, 110.0);
  // Ordering: pct1 <= avg <= max for every app by construction.
  EXPECT_LE(result.percentile1_mb.Quantile(0.5), median);
}

TEST_F(GeneratorCalibrationTest, HourlyLoadHasDiurnalPattern) {
  const HourlyLoadResult result = AnalyzeHourlyLoad(trace());
  ASSERT_EQ(result.relative_load.size(), 7u * 24u);
  // Peak normalised to 1; baseline roughly half of peak (paper: ~50%).
  double max_load = 0.0;
  for (double load : result.relative_load) {
    max_load = std::max(max_load, load);
  }
  EXPECT_DOUBLE_EQ(max_load, 1.0);
  EXPECT_GT(result.baseline_fraction, 0.25);
  EXPECT_LT(result.baseline_fraction, 0.75);
}

TEST_F(GeneratorCalibrationTest, OwnersGroupMultipleApps) {
  std::set<std::string> owners;
  for (const AppTrace& app : trace().apps) {
    owners.insert(app.owner_id);
  }
  EXPECT_LT(owners.size(), trace().apps.size());
  EXPECT_GT(owners.size(), trace().apps.size() / 8);
}

// FNV-1a over a trace's generated content: every app's ids and memory
// average, every function's id, trigger and execution average, and every
// invocation instant, in trace order.  Entity indexes are left out, so a
// shard-sliced trace hashes like the same apps inside Generate().
class TraceDigest {
 public:
  void Add(const Trace& trace) {
    for (const AppTrace& app : trace.apps) {
      AddString(app.owner_id);
      AddString(app.app_id);
      AddWord(std::bit_cast<uint64_t>(app.memory.average_mb));
      AddWord(app.functions.size());
      for (const FunctionTrace& function : app.functions) {
        AddString(function.function_id);
        AddWord(static_cast<uint64_t>(function.trigger));
        AddWord(std::bit_cast<uint64_t>(function.execution.average_ms));
        AddWord(function.invocations.size());
        for (TimePoint t : function.invocations) {
          AddWord(static_cast<uint64_t>(t.millis_since_origin()));
        }
      }
    }
  }
  uint64_t value() const { return hash_; }

 private:
  void AddByte(unsigned char byte) {
    hash_ = (hash_ ^ byte) * 0x100000001B3ull;
  }
  void AddWord(uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      AddByte(static_cast<unsigned char>(word >> (8 * i)));
    }
  }
  void AddString(std::string_view text) {
    AddWord(text.size());
    for (char c : text) {
      AddByte(static_cast<unsigned char>(c));
    }
  }

  uint64_t hash_ = 0xCBF29CE484222325ull;
};

struct GoldenCase {
  const char* name;
  GeneratorConfig config;
  uint64_t digest;
  int64_t invocations;
};

std::vector<GoldenCase> GoldenCases() {
  std::vector<GoldenCase> cases;
  {
    // The policy-experiment trace (bench_common.h MakePolicyTrace) at a
    // tenth of its apps, with pattern changes switched on.
    GoldenCase c{"policy_scale", {}, 0xED037C0AE15B88DFull, 561148};
    c.config.num_apps = 120;
    c.config.days = 7;
    c.config.seed = 20190715;
    c.config.instants_rate_cap_per_day = 4000.0;
    c.config.pattern_change_fraction = 0.3;
    cases.push_back(c);
  }
  {
    // Two weeks: the diurnal profile wraps its week.
    GoldenCase c{"two_weeks", {}, 0x0E061D7CB64BED24ull, 377246};
    c.config.num_apps = 60;
    c.config.days = 14;
    c.config.seed = 91;
    c.config.instants_rate_cap_per_day = 2000.0;
    cases.push_back(c);
  }
  {
    // Peak just before midnight: the daily hump straddles the day wrap.
    GoldenCase c{"peak_before_midnight", {}, 0xD120F728057A0B1Cull, 70082};
    c.config.num_apps = 60;
    c.config.days = 3;
    c.config.seed = 92;
    c.config.instants_rate_cap_per_day = 2000.0;
    c.config.peak_hour_utc = 23.99;
    cases.push_back(c);
  }
  {
    // Peak at midnight, flat weekends and a higher baseline.
    GoldenCase c{"peak_at_midnight", {}, 0x515196EF6689020Cull, 159210};
    c.config.num_apps = 60;
    c.config.days = 7;
    c.config.seed = 93;
    c.config.instants_rate_cap_per_day = 2000.0;
    c.config.peak_hour_utc = 0.0;
    c.config.weekend_dampening = 0.0;
    c.config.diurnal_baseline = 0.6;
    cases.push_back(c);
  }
  return cases;
}

// Pins the generated stream bit for bit.  DeterministicForSameSeed only
// compares two runs of the same build; a change to the arrival samplers or
// the thinning test that moves any instant fails here.
TEST(GeneratorGoldenTest, DigestIsUnchanged) {
  for (const GoldenCase& c : GoldenCases()) {
    SCOPED_TRACE(c.name);
    WorkloadGenerator generator(c.config);
    const Trace trace = generator.Generate(/*num_threads=*/1);
    TraceDigest digest;
    digest.Add(trace);
    EXPECT_EQ(trace.TotalInvocations(), c.invocations);
    EXPECT_EQ(digest.value(), c.digest);

    // Shard slices, materialized on the pool, concatenate to the same
    // stream.
    TraceDigest sliced;
    const int n = generator.num_sampled_apps();
    for (int begin = 0; begin < n; begin += 17) {
      sliced.Add(generator.GenerateShard(begin, std::min(begin + 17, n),
                                         /*num_threads=*/4));
    }
    EXPECT_EQ(sliced.value(), digest.value());
  }
}

TEST(GeneratorEdgeCaseTest, SingleAppSingleDay) {
  GeneratorConfig config;
  config.num_apps = 1;
  config.days = 1;
  config.seed = 3;
  const Trace trace = WorkloadGenerator(config).Generate();
  EXPECT_LE(trace.apps.size(), 1u);
  EXPECT_FALSE(trace.Validate().has_value());
}

TEST(GeneratorEdgeCaseTest, PatternChangeShiftsRateMidTrace) {
  GeneratorConfig config;
  config.num_apps = 200;
  config.days = 4;
  config.seed = 12;
  config.pattern_change_fraction = 1.0;  // Every app switches.
  config.frac_one_shot_apps = 0.0;
  const Trace trace = WorkloadGenerator(config).Generate();
  EXPECT_FALSE(trace.Validate().has_value());
  // With every app switching (2x-8x up or 2x-8x down at a random point),
  // a large share of apps must show a first-half/second-half invocation
  // ratio far from 1.
  int shifted = 0;
  int eligible = 0;
  const int64_t half = trace.horizon.millis() / 2;
  for (const AppTrace& app : trace.apps) {
    int64_t first = 0;
    int64_t second = 0;
    for (const auto& function : app.functions) {
      for (TimePoint t : function.invocations) {
        (t.millis_since_origin() < half ? first : second) += 1;
      }
    }
    if (first + second < 40) {
      continue;
    }
    ++eligible;
    const double ratio = static_cast<double>(std::max(first, second) + 1) /
                         static_cast<double>(std::min(first, second) + 1);
    if (ratio > 1.5) {
      ++shifted;
    }
  }
  ASSERT_GT(eligible, 20);
  EXPECT_GT(static_cast<double>(shifted) / eligible, 0.5);
}

TEST(GeneratorEdgeCaseTest, PatternChangeZeroIsDefaultBehaviour) {
  GeneratorConfig a;
  a.num_apps = 40;
  a.days = 1;
  a.seed = 13;
  GeneratorConfig b = a;
  b.pattern_change_fraction = 0.0;  // Explicit default.
  const Trace ta = WorkloadGenerator(a).Generate();
  const Trace tb = WorkloadGenerator(b).Generate();
  EXPECT_EQ(ta.TotalInvocations(), tb.TotalInvocations());
}

TEST(GeneratorEdgeCaseTest, DifferentSeedsProduceDifferentTraces) {
  GeneratorConfig config;
  config.num_apps = 50;
  config.days = 1;
  config.seed = 1;
  const Trace a = WorkloadGenerator(config).Generate();
  config.seed = 2;
  const Trace b = WorkloadGenerator(config).Generate();
  EXPECT_NE(a.TotalInvocations(), b.TotalInvocations());
}

}  // namespace
}  // namespace faas
