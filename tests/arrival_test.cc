#include "src/workload/arrival.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/stats/descriptive.h"
#include "src/trace/types.h"

namespace faas {
namespace {

double StreamCv(const std::vector<TimePoint>& arrivals) {
  const std::vector<Duration> iats = InterArrivalTimes(arrivals);
  std::vector<double> minutes;
  minutes.reserve(iats.size());
  for (Duration iat : iats) {
    minutes.push_back(iat.minutes());
  }
  return CoefficientOfVariation(minutes);
}

TEST(DiurnalProfileTest, MultiplierBounded) {
  const GeneratorConfig config;
  const DiurnalProfile profile(config);
  for (int hour = 0; hour < 24 * 14; ++hour) {
    const double m = profile.MultiplierAt(
        TimePoint(static_cast<int64_t>(hour) * 3'600'000));
    EXPECT_GT(m, 0.0);
    EXPECT_LE(m, 1.0);
    EXPECT_GE(m, config.diurnal_baseline - 1e-9);
  }
}

TEST(DiurnalProfileTest, PeakAtConfiguredHour) {
  GeneratorConfig config;
  config.peak_hour_utc = 15.0;
  const DiurnalProfile profile(config);
  const double at_peak =
      profile.MultiplierAt(TimePoint(15 * 3'600'000));
  const double at_night =
      profile.MultiplierAt(TimePoint(3 * 3'600'000));
  EXPECT_GT(at_peak, 0.99);
  EXPECT_LT(at_night, at_peak);
}

TEST(DiurnalProfileTest, WeekendDampened) {
  const GeneratorConfig config;
  const DiurnalProfile profile(config);
  // Day 0 is Monday; day 5 Saturday.  Compare the same peak hour.
  const double weekday = profile.MultiplierAt(
      TimePoint(int64_t{15} * 3'600'000));
  const double weekend = profile.MultiplierAt(
      TimePoint((int64_t{5} * 24 + 15) * 3'600'000));
  EXPECT_LT(weekend, weekday);
}

constexpr int64_t kMinuteMs = 60'000;
constexpr int64_t kWeekMinutes = 7 * 24 * 60;
constexpr int64_t kWeekMs = kWeekMinutes * kMinuteMs;

// Profiles the thinning bands must hold: the default, a flat profile, flat
// and undampened weekends, and peaks at both edges of the day.
std::vector<GeneratorConfig> BandConfigs() {
  std::vector<GeneratorConfig> configs(6);
  configs[1].diurnal_baseline = 1.0;
  configs[2].weekend_dampening = 0.0;
  configs[3].weekend_dampening = 1.0;
  configs[3].diurnal_baseline = 0.05;
  configs[4].peak_hour_utc = 23.99;
  configs[5].peak_hour_utc = 0.0;
  configs[5].weekend_dampening = 0.3;
  return configs;
}

// Every minute's band holds the multiplier at both ends of the minute and
// at sampled instants inside it, in the first week and later ones, and
// Accepts agrees with the exact comparison at the band edges and on both
// sides of the exact value.
TEST(DiurnalProfileTest, BandsHoldMultiplierAndAcceptsIsExact) {
  Rng rng(511);
  for (const GeneratorConfig& config : BandConfigs()) {
    SCOPED_TRACE("baseline " + std::to_string(config.diurnal_baseline) +
                 " dampening " + std::to_string(config.weekend_dampening) +
                 " peak " + std::to_string(config.peak_hour_utc));
    const DiurnalProfile profile(config);
    for (int64_t minute = 0; minute < kWeekMinutes; ++minute) {
      const int64_t first = minute * kMinuteMs;
      const DiurnalProfile::Band band = profile.BandAt(TimePoint(first));
      std::vector<int64_t> instants = {first, first + kMinuteMs - 1};
      for (int i = 0; i < 4; ++i) {
        instants.push_back(first + rng.UniformInt(int64_t{1}, kMinuteMs - 2));
      }
      instants.push_back(instants.back() + rng.UniformInt(int64_t{1}, 3) *
                                               kWeekMs);
      for (const int64_t ms : instants) {
        const TimePoint t(ms);
        const double m = profile.MultiplierAt(t);
        ASSERT_LE(band.lo, m) << "t=" << ms;
        ASSERT_GE(band.hi, m) << "t=" << ms;
        const DiurnalProfile::Band at = profile.BandAt(t);
        ASSERT_EQ(at.lo, band.lo) << "t=" << ms;
        ASSERT_EQ(at.hi, band.hi) << "t=" << ms;
        for (const double u :
             {band.lo, band.hi, m, std::nextafter(m, 0.0),
              std::nextafter(m, 2.0)}) {
          ASSERT_EQ(profile.Accepts(t, u), u < m) << "t=" << ms << " u=" << u;
        }
      }
    }
  }
}

// The minutes that hold the hump's peak or trough never decide from their
// band; a minute between them does.
TEST(DiurnalProfileTest, ExtremumMinutesTakeTheExactComparison) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto minute_at = [](double hour) {
    return TimePoint(static_cast<int64_t>(hour * 3'600'000.0));
  };
  GeneratorConfig config;
  config.peak_hour_utc = 15.0;
  {
    const DiurnalProfile profile(config);
    for (const double hour : {15.0, 3.0, 24.0 * 5 + 15.0, 24.0 * 6 + 3.0}) {
      EXPECT_EQ(profile.BandAt(minute_at(hour)).lo, -kInf) << hour;
      EXPECT_EQ(profile.BandAt(minute_at(hour)).hi, kInf) << hour;
    }
    EXPECT_GT(profile.BandAt(minute_at(9.0)).lo, 0.0);
    EXPECT_LT(profile.BandAt(minute_at(9.0)).hi, 1.0);
  }
  config.peak_hour_utc = 23.99;
  {
    const DiurnalProfile profile(config);
    for (const double hour : {23.995, 11.995}) {
      EXPECT_EQ(profile.BandAt(minute_at(hour)).lo, -kInf) << hour;
    }
    EXPECT_GT(profile.BandAt(minute_at(0.0)).lo, 0.0);
  }
  // Instants before the origin and beyond the table also compare exactly.
  const DiurnalProfile profile(config);
  for (const int64_t ms : {int64_t{-1}, int64_t{1} << 50}) {
    EXPECT_EQ(profile.BandAt(TimePoint(ms)).lo, -kInf);
    const double m = profile.MultiplierAt(TimePoint(ms));
    EXPECT_EQ(profile.Accepts(TimePoint(ms), std::nextafter(m, 0.0)), true);
    EXPECT_EQ(profile.Accepts(TimePoint(ms), m), false);
  }
}

// Every millisecond of a week against its band, for each of BandConfigs.
// Several minutes of CPU even in an optimized build, so it stays out of
// the tier-1 run; run it with --gtest_also_run_disabled_tests after
// changing the profile or its bands.
TEST(DiurnalProfileTest, DISABLED_BandsHoldMultiplierEveryMillisecond) {
  for (const GeneratorConfig& config : BandConfigs()) {
    const DiurnalProfile profile(config);
    int64_t outside = 0;
    int64_t exact_ms = 0;
    for (int64_t ms = 0; ms < kWeekMs; ++ms) {
      const TimePoint t(ms);
      const double m = profile.MultiplierAt(t);
      const DiurnalProfile::Band band = profile.BandAt(t);
      outside += m < band.lo || m > band.hi;
      exact_ms += band.lo == -std::numeric_limits<double>::infinity();
    }
    EXPECT_EQ(outside, 0);
    std::printf("baseline %.2f dampening %.2f peak %.2f: %lld of %lld ms in "
                "exact-comparison minutes, %lld outside their band\n",
                config.diurnal_baseline, config.weekend_dampening,
                config.peak_hour_utc, static_cast<long long>(exact_ms),
                static_cast<long long>(kWeekMs),
                static_cast<long long>(outside));
  }
}

TEST(PeriodicArrivalsTest, RespectsPeriodAndHorizon) {
  Rng rng(500);
  const Duration period = Duration::Minutes(10);
  const Duration horizon = Duration::Hours(5);
  const auto arrivals = GeneratePeriodicArrivals(period, horizon, rng);
  // 5 hours / 10 minutes = 30 slots (29 or 30 events depending on phase).
  EXPECT_GE(arrivals.size(), 29u);
  EXPECT_LE(arrivals.size(), 31u);
  for (size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i] - arrivals[i - 1], period);
  }
  EXPECT_LT(arrivals.back().millis_since_origin(), horizon.millis());
}

TEST(PeriodicArrivalsTest, ZeroJitterGivesCvZero) {
  Rng rng(501);
  const auto arrivals = GeneratePeriodicArrivals(
      Duration::Minutes(5), Duration::Days(1), rng, 0.0);
  EXPECT_NEAR(StreamCv(arrivals), 0.0, 1e-9);
}

TEST(PeriodicArrivalsTest, JitterRaisesCvSlightly) {
  Rng rng(502);
  const auto arrivals = GeneratePeriodicArrivals(
      Duration::Minutes(5), Duration::Days(2), rng, 0.3);
  const double cv = StreamCv(arrivals);
  EXPECT_GT(cv, 0.01);
  EXPECT_LT(cv, 0.5);
}

TEST(PoissonArrivalsTest, MeanRateMatchesRequest) {
  const GeneratorConfig config;
  const DiurnalProfile profile(config);
  Rng rng(503);
  const double rate = 2000.0;  // Per day.
  const Duration horizon = Duration::Days(7);
  const auto arrivals =
      GeneratePoissonArrivals(rate, horizon, profile, rng);
  const double realised =
      static_cast<double>(arrivals.size()) / horizon.days();
  EXPECT_NEAR(realised, rate, rate * 0.05);
}

TEST(PoissonArrivalsTest, CvNearOne) {
  const GeneratorConfig config;
  const DiurnalProfile profile(config);
  Rng rng(504);
  const auto arrivals = GeneratePoissonArrivals(5000.0, Duration::Days(7),
                                                profile, rng);
  // Diurnal modulation inflates the CV slightly above the memoryless 1.0.
  const double cv = StreamCv(arrivals);
  EXPECT_GT(cv, 0.9);
  EXPECT_LT(cv, 1.5);
}

TEST(PoissonArrivalsTest, ArrivalsSortedWithinHorizon) {
  const GeneratorConfig config;
  const DiurnalProfile profile(config);
  Rng rng(505);
  const Duration horizon = Duration::Days(1);
  const auto arrivals =
      GeneratePoissonArrivals(300.0, horizon, profile, rng);
  for (size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_LE(arrivals[i - 1], arrivals[i]);
  }
  if (!arrivals.empty()) {
    EXPECT_GE(arrivals.front(), TimePoint::Origin());
    EXPECT_LT(arrivals.back().millis_since_origin(), horizon.millis());
  }
}

TEST(PoissonArrivalsTest, ZeroRateGivesNoArrivals) {
  const GeneratorConfig config;
  const DiurnalProfile profile(config);
  Rng rng(506);
  EXPECT_TRUE(
      GeneratePoissonArrivals(0.0, Duration::Days(1), profile, rng).empty());
}

TEST(PoissonArrivalsTest, FollowsDiurnalShape) {
  const GeneratorConfig config;
  const DiurnalProfile profile(config);
  Rng rng(507);
  const auto arrivals = GeneratePoissonArrivals(
      100'000.0, Duration::Days(7), profile, rng);
  // Count arrivals in the peak hour vs a deep-night hour across weekdays.
  int64_t peak = 0;
  int64_t night = 0;
  for (TimePoint t : arrivals) {
    const int64_t hour_of_day = (t.millis_since_origin() / 3'600'000) % 24;
    const int64_t day = t.millis_since_origin() / 86'400'000;
    if (day % 7 >= 5) {
      continue;
    }
    if (hour_of_day == 15) {
      ++peak;
    }
    if (hour_of_day == 3) {
      ++night;
    }
  }
  EXPECT_GT(static_cast<double>(peak),
            1.3 * static_cast<double>(night));
}

TEST(BurstyArrivalsTest, CvWellAboveOne) {
  const GeneratorConfig config;
  const DiurnalProfile profile(config);
  Rng rng(508);
  const auto arrivals = GenerateBurstyArrivals(
      500.0, Duration::Days(7), profile, rng, 10.0, Duration::Seconds(30));
  EXPECT_GT(StreamCv(arrivals), 1.5);
}

TEST(BurstyArrivalsTest, MeanRateApproximatelyPreserved) {
  const GeneratorConfig config;
  const DiurnalProfile profile(config);
  Rng rng(509);
  const double rate = 1000.0;
  const auto arrivals = GenerateBurstyArrivals(
      rate, Duration::Days(14), profile, rng, 8.0, Duration::Seconds(45));
  const double realised = static_cast<double>(arrivals.size()) / 14.0;
  EXPECT_NEAR(realised, rate, rate * 0.15);
}

TEST(BurstyArrivalsTest, IntraBurstSpacingIndependentOfRarity) {
  // The production insight: rare apps still see tight clumps.  Median IAT
  // should be near the intra-burst scale even at a very low mean rate.
  const GeneratorConfig config;
  const DiurnalProfile profile(config);
  Rng rng(510);
  const auto arrivals = GenerateBurstyArrivals(
      24.0, Duration::Days(14), profile, rng, 8.0, Duration::Seconds(60));
  const std::vector<Duration> iats = InterArrivalTimes(arrivals);
  ASSERT_GT(iats.size(), 10u);
  std::vector<double> minutes;
  for (Duration iat : iats) {
    minutes.push_back(iat.minutes());
  }
  EXPECT_LT(Median(minutes), 10.0);
}

TEST(SnapToTimerPeriodTest, PicksNearestGridEntry) {
  EXPECT_EQ(SnapToTimerPeriod(1440.0), Duration::Minutes(1));
  EXPECT_EQ(SnapToTimerPeriod(288.0), Duration::Minutes(5));
  EXPECT_EQ(SnapToTimerPeriod(24.0), Duration::Hours(1));
  EXPECT_EQ(SnapToTimerPeriod(1.0), Duration::Days(1));
  EXPECT_EQ(SnapToTimerPeriod(0.0), Duration::Days(1));
  // Rates above once-per-minute still snap to the 1-minute floor.
  EXPECT_EQ(SnapToTimerPeriod(1'000'000.0), Duration::Minutes(1));
}

}  // namespace
}  // namespace faas
