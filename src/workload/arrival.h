// Arrival-process generators for synthetic invocation streams.
//
// Three behaviours cover the IAT-variability spectrum the paper measures
// (Figure 6): periodic streams (timers and IoT-style callers, CV ~ 0),
// diurnal-modulated Poisson streams (human traffic, CV ~ 1), and bursty
// on/off-modulated Poisson streams (queue drains and event batches, CV > 1).
// The diurnal profile reproduces the platform-wide hourly shape of Figure 4:
// a constant baseline (GeneratorConfig::diurnal_baseline, 38% of peak by
// default) under a daily hump whose swing weekends dampen.

#ifndef SRC_WORKLOAD_ARRIVAL_H_
#define SRC_WORKLOAD_ARRIVAL_H_

#include <vector>

#include "src/common/rng.h"
#include "src/common/time.h"
#include "src/workload/config.h"

namespace faas {

// Platform load multiplier over time, normalised so the PEAK is 1.0.
//
// Thinning asks, for every candidate instant t and uniform draw u, whether
// u < MultiplierAt(t), and MultiplierAt costs an fmod, a cos and a pow.  The
// profile therefore also keeps one band per minute of the week that holds
// MultiplierAt(t) for every millisecond t of that minute (the profile
// repeats weekly), and Accepts evaluates the multiplier only for draws that
// fall inside the band.  Building the table costs two multiplier
// evaluations per minute of the week, so build one profile per generator,
// not per stream.
class DiurnalProfile {
 public:
  // Bounds on MultiplierAt over one minute of the week: lo <= MultiplierAt(t)
  // <= hi for every millisecond t of the minute.
  struct Band {
    double lo;
    double hi;
  };

  explicit DiurnalProfile(const GeneratorConfig& config);

  // Multiplier in (0, 1] at an instant (day 0 = Monday by convention; the
  // paper's trace starts Monday July 15th, 2019).
  double MultiplierAt(TimePoint t) const;

  // Thinning test: exactly u < MultiplierAt(t), for every t and u.  Draws
  // below the minute's band accept and draws at or above it reject without
  // evaluating the multiplier; the rest, instants before the origin or
  // beyond the table's range (2^43 ms, about 278 years), and every instant
  // of a minute that holds the hump's peak or trough (where the multiplier
  // is not monotone) take the exact comparison.
  bool Accepts(TimePoint t, double u) const;

  // The band of t's minute of the week; {-inf, +inf} for a minute that
  // always takes the exact comparison.
  Band BandAt(TimePoint t) const;

  // Mean of MultiplierAt over the 168 hours of the first week, sampled on
  // the hour.
  double weekly_average() const { return weekly_average_; }
  double baseline() const { return baseline_; }

 private:
  double baseline_;
  double weekend_dampening_;
  double peak_hour_;
  double weekly_average_ = 0.0;
  std::vector<Band> bands_;  // Indexed by minute of the week.
};

// Periodic arrivals: period `period`, phase uniform in [0, period), plus an
// optional per-event jitter (fraction of the period; 0 = strictly periodic).
std::vector<TimePoint> GeneratePeriodicArrivals(Duration period,
                                                Duration horizon, Rng& rng,
                                                double jitter_fraction = 0.0);

// Non-homogeneous Poisson arrivals via Lewis-Shedler thinning against the
// diurnal profile.  `mean_rate_per_day` is the time-averaged rate; the
// instantaneous rate is scaled by the profile's weekly average so the
// average over the horizon matches.
std::vector<TimePoint> GeneratePoissonArrivals(double mean_rate_per_day,
                                               Duration horizon,
                                               const DiurnalProfile& profile,
                                               Rng& rng);

// Bursty arrivals: a Poisson cluster (Neyman-Scott) process.  Burst epochs
// arrive as a diurnal-modulated Poisson stream with rate
// `mean_rate_per_day / events_per_burst`; each burst carries
// 1 + Poisson(events_per_burst - 1) events whose intra-burst inter-arrival
// times are exponential with mean `intra_burst_iat`.  Crucially the
// intra-burst spacing is independent of how rare the app is — matching the
// production observation that even infrequently-invoked applications see
// tight clumps of invocations — and IAT CVs land well above 1.
std::vector<TimePoint> GenerateBurstyArrivals(
    double mean_rate_per_day, Duration horizon, const DiurnalProfile& profile,
    Rng& rng, double events_per_burst = 8.0,
    Duration intra_burst_iat = Duration::Seconds(45));

// Picks the timer period (a "cron-like" round value) whose firing rate best
// matches the requested daily rate.  95% of timer functions fire at most
// once per minute, so the grid starts at one minute.
Duration SnapToTimerPeriod(double desired_rate_per_day);

// Flash-crowd overlay: synchronized bursts stacked on top of an existing
// trace's arrival streams.  Each burst is an epoch at which a Bernoulli
// `fraction` of apps simultaneously receive a clump of extra invocations,
// front-loaded inside [epoch, epoch + duration) — the coordinated spike
// (marketing push, incident storm, thundering-herd retry) that saturates a
// cluster provisioned for the diurnal average and that the overload control
// plane exists to absorb.  A default spec (count == 0) leaves the trace
// untouched and draws no random numbers.
struct FlashCrowdSpec {
  // Number of burst epochs, placed uniformly in the middle 70% of the
  // horizon so warm-up and drain-out do not mask the spike.
  int count = 0;
  // Width of each burst window; extra arrivals decay exponentially with
  // mean duration/4, so most of the clump lands in the window's first half.
  Duration duration = Duration::Minutes(10);
  // Probability that a given app participates in a given burst.
  double fraction = 0.3;
  // Mean extra invocations per participating function per burst (Poisson).
  double events_per_function = 80.0;

  bool enabled() const { return count > 0; }
};

// Injects the spec's bursts into `trace` in place: participating functions
// gain sorted extra invocation instants and their execution/memory sample
// counts are refreshed.  Deterministic given (`trace`, `spec`, `rng` state);
// apps consume independent forked streams, so per-app draws do not depend
// on how many events earlier apps received.
void ApplyFlashCrowd(Trace& trace, const FlashCrowdSpec& spec, Rng& rng);

}  // namespace faas

#endif  // SRC_WORKLOAD_ARRIVAL_H_
