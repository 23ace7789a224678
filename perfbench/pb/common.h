// Shared plumbing for the repository benchmark: run parameters, the report
// every workload fills, wall clocks and order statistics.
#ifndef PERFBENCH_PB_COMMON_H_
#define PERFBENCH_PB_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunParams {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Where the traced run writes its span log (Chrome trace_event JSON);
  // empty = keep spans in memory only.
  std::string trace_out;
  // Sweep worker threads: the host's core count, at most 4.
  int threads = 1;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;  // Observations behind the value.
};

// What one workload run produces.  `errors` non-empty means a correctness
// check failed: the run reports no metric and exits non-zero.
struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;
  // Free-form configuration record (threads, connections, sizes).
  std::vector<std::pair<std::string, std::string>> config;

  void Add(std::string name, double value, std::string unit,
           int64_t samples) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  void Fail(std::string message) {
    if (std::find(errors.begin(), errors.end(), message) == errors.end()) {
      errors.push_back(std::move(message));
    }
  }
  void Note(std::string key, std::string value) {
    config.emplace_back(std::move(key), std::move(value));
  }
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Nearest-rank percentile (p in [0, 100]) of an unsorted sample; 0 when
// empty.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size());
  size_t index = rank <= 1.0 ? 0 : static_cast<size_t>(rank + 0.999999) - 1;
  index = std::min(index, values.size() - 1);
  return values[index];
}

inline double Median(const std::vector<double>& values) {
  return Percentile(values, 50.0);
}

// SplitMix64 finalizer: derives independent sub-seeds from the run seed.
inline uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Calls `body` (which returns the duration it measured, ms) until
// `seconds` of wall time have passed and at least `min_iterations` ran;
// returns the measured durations.
template <class Body>
std::vector<double> RepeatFor(double seconds, int min_iterations, Body body) {
  std::vector<double> durations;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (static_cast<int>(durations.size()) < min_iterations ||
         NowNs() < deadline) {
    durations.push_back(body());
  }
  return durations;
}

// The simulated workloads draw their app population (functions, triggers,
// rates, execution times, memory) from the generator seed every figure
// bench of the repository uses, so that every run seed replays a
// population of the same size and cost.  The run seed picks the hour of the
// diurnal peak in [14, 15): arrivals are thinned against the diurnal curve,
// so the seed changes which instants each app keeps.  A wider range, or a
// generator seed taken from the run seed, let the population's ARIMA load
// rather than the code set the hybrid sweep's cost: peaks at 16:30 cost
// about 10% more than peaks at 14:30.
inline constexpr uint64_t kPolicyTraceSeed = 20190715;
inline double PeakHour(uint64_t seed) {
  return 14.0 + static_cast<double>(MixSeed(seed, 1) % 1000) / 1000.0;
}

// Process high-water RSS, MB.
double PeakRssMb();

// Workload entry points (one process runs exactly one).
Report RunSweepFixed(const RunParams& params);
Report RunSweepHybrid(const RunParams& params);
Report RunClusterOverload(const RunParams& params);
Report RunServeLoopback(const RunParams& params);

}  // namespace perfbench

#endif  // PERFBENCH_PB_COMMON_H_
