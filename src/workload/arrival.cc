#include "src/workload/arrival.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/logging.h"

namespace faas {

namespace {

constexpr double kMillisPerDay = 86'400'000.0;
constexpr int64_t kMillisPerMinute = 60'000;
constexpr int64_t kMinutesPerDay = 24 * 60;
constexpr int64_t kMinutesPerWeek = 7 * kMinutesPerDay;
// Instants in [0, 2^43) ms: their day index and time of day are exact in
// double, so MultiplierAt(t) equals MultiplierAt(t mod one week) there and
// one week of bands covers them.
constexpr uint64_t kBandRangeMs = uint64_t{1} << 43;
// Widening of each band edge.  It must exceed the rounding error of
// MultiplierAt twice over (an edge is itself a rounded value); that error
// is a few ulps of O(1) operands, about 1e-15, once the peak hour is a
// time of day.  The multiplier moves by up to ~2e-3 within a minute, so
// the widening hardly changes how many draws fall inside a band.
constexpr double kBandSlack = 1e-9;
// Padding, in hours, around the hump's peak and trough when deciding which
// minutes hold one; covers rounding in the minute's hour bounds.
constexpr double kExtremumPadHours = 1e-6;

}  // namespace

DiurnalProfile::DiurnalProfile(const GeneratorConfig& config)
    : baseline_(config.diurnal_baseline),
      weekend_dampening_(config.weekend_dampening),
      peak_hour_(config.peak_hour_utc) {
  FAAS_CHECK(baseline_ > 0.0 && baseline_ <= 1.0) << "baseline in (0,1]";
  FAAS_CHECK(weekend_dampening_ >= 0.0 && weekend_dampening_ <= 1.0)
      << "weekend dampening in [0,1]";
  FAAS_CHECK(peak_hour_ >= 0.0 && peak_hour_ <= 24.0) << "peak hour in [0,24]";

  // Hourly over one week is exact enough for a smooth profile.
  constexpr int kGrid = 24 * 7;
  for (int i = 0; i < kGrid; ++i) {
    weekly_average_ +=
        MultiplierAt(TimePoint(static_cast<int64_t>(i) * 3'600'000));
  }
  weekly_average_ /= kGrid;

  // Between its peak (hour == peak_hour) and its trough twelve hours away
  // the hump is monotone, and so is the multiplier within one day, so a
  // minute without either extremum is bounded by its two end values.
  const double extremum_offset = std::fmod(peak_hour_, 12.0);
  bands_.resize(static_cast<size_t>(kMinutesPerWeek));
  for (int64_t minute = 0; minute < kMinutesPerWeek; ++minute) {
    const int64_t first_ms = minute * kMillisPerMinute;
    const int64_t last_ms = first_ms + kMillisPerMinute - 1;
    const double first_hour =
        static_cast<double>(minute % kMinutesPerDay) / 60.0;
    const double last_hour =
        first_hour + static_cast<double>(kMillisPerMinute - 1) / 3'600'000.0;
    bool holds_extremum = false;
    for (int k = -1; k <= 2; ++k) {
      const double extremum = extremum_offset + 12.0 * k;
      holds_extremum |= extremum >= first_hour - kExtremumPadHours &&
                        extremum <= last_hour + kExtremumPadHours;
    }
    Band& band = bands_[static_cast<size_t>(minute)];
    if (holds_extremum) {
      band = {-std::numeric_limits<double>::infinity(),
              std::numeric_limits<double>::infinity()};
      continue;
    }
    const double first = MultiplierAt(TimePoint(first_ms));
    const double last = MultiplierAt(TimePoint(last_ms));
    band = {std::min(first, last) - kBandSlack,
            std::max(first, last) + kBandSlack};
  }
}

double DiurnalProfile::MultiplierAt(TimePoint t) const {
  const double ms = static_cast<double>(t.millis_since_origin());
  const double day_fraction = std::fmod(ms, kMillisPerDay) / kMillisPerDay;
  const double hour = day_fraction * 24.0;
  const int day_index = static_cast<int>(ms / kMillisPerDay);
  // Day 0 is a Monday (the trace starts Monday, July 15th 2019); days 5 and
  // 6 of each week are the weekend.
  const bool weekend = (day_index % 7) >= 5;

  // Raised-cosine hump centred on the peak hour, on top of the baseline.
  const double phase = 2.0 * M_PI * (hour - peak_hour_) / 24.0;
  double hump = 0.5 * (1.0 + std::cos(phase));  // In [0, 1], peak at peak_hour.
  // Sharpen the hump slightly so the peak is pronounced, as in Figure 4.
  hump = std::pow(hump, 1.5);
  double multiplier = baseline_ + (1.0 - baseline_) * hump;
  if (weekend) {
    // Weekends keep the baseline but shrink the diurnal swing.
    multiplier = baseline_ + (multiplier - baseline_) * weekend_dampening_;
  }
  return multiplier;
}

DiurnalProfile::Band DiurnalProfile::BandAt(TimePoint t) const {
  const int64_t ms = t.millis_since_origin();
  // The cast sends instants before the origin beyond the range too.
  if (static_cast<uint64_t>(ms) >= kBandRangeMs) {
    return {-std::numeric_limits<double>::infinity(),
            std::numeric_limits<double>::infinity()};
  }
  return bands_[static_cast<size_t>(ms / kMillisPerMinute % kMinutesPerWeek)];
}

bool DiurnalProfile::Accepts(TimePoint t, double u) const {
  const Band band = BandAt(t);
  if (u < band.lo) {
    return true;
  }
  if (u >= band.hi) {
    return false;
  }
  return u < MultiplierAt(t);
}

std::vector<TimePoint> GeneratePeriodicArrivals(Duration period,
                                                Duration horizon, Rng& rng,
                                                double jitter_fraction) {
  FAAS_CHECK(period.millis() > 0) << "period must be positive";
  std::vector<TimePoint> arrivals;
  const int64_t phase =
      static_cast<int64_t>(rng.NextDouble() * static_cast<double>(period.millis()));
  const double jitter_ms =
      jitter_fraction * static_cast<double>(period.millis());
  for (int64_t t = phase; t < horizon.millis(); t += period.millis()) {
    int64_t instant = t;
    if (jitter_ms > 0.0) {
      instant += static_cast<int64_t>((rng.NextDouble() - 0.5) * jitter_ms);
      instant = std::clamp<int64_t>(instant, 0, horizon.millis() - 1);
    }
    arrivals.emplace_back(instant);
  }
  std::sort(arrivals.begin(), arrivals.end());
  return arrivals;
}

std::vector<TimePoint> GeneratePoissonArrivals(double mean_rate_per_day,
                                               Duration horizon,
                                               const DiurnalProfile& profile,
                                               Rng& rng) {
  std::vector<TimePoint> arrivals;
  if (mean_rate_per_day <= 0.0) {
    return arrivals;
  }
  // Lewis-Shedler thinning with majorant rate = peak (multiplier 1), scaled
  // by the weekly average so the realised mean rate matches the request.
  const double peak_rate_per_ms =
      (mean_rate_per_day / profile.weekly_average()) / kMillisPerDay;
  arrivals.reserve(static_cast<size_t>(
      mean_rate_per_day * horizon.millis() / kMillisPerDay * 1.1) + 4);
  double t_ms = 0.0;
  const double horizon_ms = static_cast<double>(horizon.millis());
  while (true) {
    t_ms += rng.NextExponential(peak_rate_per_ms);
    if (t_ms >= horizon_ms) {
      break;
    }
    const TimePoint candidate(static_cast<int64_t>(t_ms));
    if (profile.Accepts(candidate, rng.NextDouble())) {
      arrivals.push_back(candidate);
    }
  }
  return arrivals;
}

std::vector<TimePoint> GenerateBurstyArrivals(double mean_rate_per_day,
                                              Duration horizon,
                                              const DiurnalProfile& profile,
                                              Rng& rng,
                                              double events_per_burst,
                                              Duration intra_burst_iat) {
  std::vector<TimePoint> arrivals;
  if (mean_rate_per_day <= 0.0) {
    return arrivals;
  }
  FAAS_CHECK(events_per_burst >= 1.0) << "need at least one event per burst";
  FAAS_CHECK(intra_burst_iat.millis() > 0) << "intra-burst IAT must be positive";

  // Burst epochs: diurnal-modulated Poisson at rate / events_per_burst.
  const std::vector<TimePoint> epochs = GeneratePoissonArrivals(
      mean_rate_per_day / events_per_burst, horizon, profile, rng);

  const double intra_rate_per_ms =
      1.0 / static_cast<double>(intra_burst_iat.millis());
  const double horizon_ms = static_cast<double>(horizon.millis());
  for (TimePoint epoch : epochs) {
    arrivals.push_back(epoch);
    const double extra = rng.NextPoisson(events_per_burst - 1.0);
    double t_ms = static_cast<double>(epoch.millis_since_origin());
    for (double k = 0; k < extra; k += 1.0) {
      t_ms += rng.NextExponential(intra_rate_per_ms);
      if (t_ms >= horizon_ms) {
        break;
      }
      arrivals.emplace_back(static_cast<int64_t>(t_ms));
    }
  }
  std::sort(arrivals.begin(), arrivals.end());
  return arrivals;
}

void ApplyFlashCrowd(Trace& trace, const FlashCrowdSpec& spec, Rng& rng) {
  if (!spec.enabled()) {
    return;
  }
  FAAS_CHECK(spec.duration.millis() > 0) << "burst duration must be positive";
  FAAS_CHECK(spec.fraction > 0.0 && spec.fraction <= 1.0)
      << "participation fraction in (0,1]";
  FAAS_CHECK(spec.events_per_function > 0.0)
      << "events per function must be positive";

  const double horizon_ms = static_cast<double>(trace.horizon.millis());
  std::vector<double> epochs(static_cast<size_t>(spec.count));
  for (double& epoch : epochs) {
    epoch = rng.UniformDouble(0.15, 0.85) * horizon_ms;
  }
  std::sort(epochs.begin(), epochs.end());

  const double duration_ms = static_cast<double>(spec.duration.millis());
  const double offset_rate_per_ms = 4.0 / duration_ms;  // Mean duration/4.
  for (AppTrace& app : trace.apps) {
    // Independent stream per app: the draws an app consumes do not shift
    // when another app's burst sizes change.
    Rng app_rng = rng.Fork();
    bool touched = false;
    for (double epoch : epochs) {
      if (!app_rng.Bernoulli(spec.fraction)) {
        continue;
      }
      for (FunctionTrace& function : app.functions) {
        const double extra = app_rng.NextPoisson(spec.events_per_function);
        for (double k = 0; k < extra; k += 1.0) {
          const double offset = std::min(
              app_rng.NextExponential(offset_rate_per_ms), duration_ms - 1.0);
          const double t = std::min(epoch + offset, horizon_ms - 1.0);
          function.invocations.emplace_back(static_cast<int64_t>(t));
          touched = true;
        }
      }
    }
    if (!touched) {
      continue;
    }
    for (FunctionTrace& function : app.functions) {
      std::sort(function.invocations.begin(), function.invocations.end());
      function.execution.count = function.InvocationCount();
    }
    app.memory.sample_count = std::max<int64_t>(app.TotalInvocations(), 1);
  }
}

Duration SnapToTimerPeriod(double desired_rate_per_day) {
  // Cron-style grid: 1, 2, 5, 10, 15, 30 minutes; 1, 2, 4, 6, 12 hours; 1 day.
  static const Duration kGrid[] = {
      Duration::Minutes(1),  Duration::Minutes(2),  Duration::Minutes(5),
      Duration::Minutes(10), Duration::Minutes(15), Duration::Minutes(30),
      Duration::Hours(1),    Duration::Hours(2),    Duration::Hours(4),
      Duration::Hours(6),    Duration::Hours(12),   Duration::Days(1),
  };
  if (desired_rate_per_day <= 0.0) {
    return Duration::Days(1);
  }
  const double desired_period_ms = kMillisPerDay / desired_rate_per_day;
  Duration best = kGrid[0];
  double best_error = std::numeric_limits<double>::infinity();
  for (Duration candidate : kGrid) {
    const double error = std::fabs(
        std::log(static_cast<double>(candidate.millis()) / desired_period_ms));
    if (error < best_error) {
      best_error = error;
      best = candidate;
    }
  }
  return best;
}

}  // namespace faas
