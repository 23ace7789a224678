// Host speed probe.  A fixed amount of benchmark-owned work (no repository
// code), run on a given number of threads and timed on the wall clock.
//
// A shared host runs the same code at very different speeds from one
// quarter of an hour to the next: on the baseline VM, sets of identical
// sweeps ran up to 1.8x slower than earlier sets, single-threaded set-up
// included.  The CPU-bound workloads therefore run the probe between their
// timed iterations, on as many threads as the iteration uses, and report
// each time scaled to a fixed reference probe time: what the iteration
// would have taken on the host the reference was measured on.  A change
// to the repository's code cannot move the probe, so it moves a scaled
// time by the same factor as the raw one.  The raw times are printed too.
#ifndef PERFBENCH_PB_PROBE_H_
#define PERFBENCH_PB_PROBE_H_

#include <cstdint>
#include <cstdio>
#include <vector>

#include "pb/common.h"

namespace perfbench {

class HostProbe {
 public:
  // Builds one working set per thread.  Run() only reads them.  With
  // `cpus` given, thread t runs on cpus[t] (one entry per thread).
  explicit HostProbe(int threads, std::vector<int> cpus = {});

  // Runs the fixed work on `threads` threads, started for the call and
  // joined before it returns, a few times; returns the fastest run's mean
  // per-thread wall time, ms.
  double Run() const;

  // The probe time the reported times are scaled to, ms.
  static double ReferenceMs();

 private:
  double RunOnce() const;

  int threads_;
  std::vector<int> cpus_;
  std::vector<std::vector<uint32_t>> rings_;  // One random cycle per thread.
};

// Wall times of repeated iterations, raw and scaled to the reference host.
struct ScaledTimes {
  std::vector<double> raw_ms;
  std::vector<double> probe_ms;   // Before the first iteration, after each.
  std::vector<double> scaled_ms;  // raw * reference / median(probe_ms)

  // One line with the raw and scaled medians and the probe times.
  void Print(const char* what) const {
    std::printf("host: %s raw median %.3f ms, scaled median %.3f ms; probe "
                "median %.2f ms (min %.2f, max %.2f, n=%zu), reference "
                "%.1f ms\n",
                what, Median(raw_ms), Median(scaled_ms), Median(probe_ms),
                Percentile(probe_ms, 0.0), Percentile(probe_ms, 100.0),
                probe_ms.size(), HostProbe::ReferenceMs());
  }
};

// Runs `body` (which returns the wall ms it measured) until `seconds` have
// passed and at least `min_iterations` ran, with a probe run before the
// first iteration and after each one.  Every iteration is scaled by the
// run's median probe time: the host's speed drifts over minutes, and a
// single probe next to an iteration is noisier than that drift.
template <class Body>
ScaledTimes RepeatScaled(const HostProbe& probe, double seconds,
                         int min_iterations, Body body) {
  ScaledTimes times;
  times.probe_ms.push_back(probe.Run());
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (static_cast<int>(times.raw_ms.size()) < min_iterations ||
         NowNs() < deadline) {
    times.raw_ms.push_back(body());
    times.probe_ms.push_back(probe.Run());
  }
  const double scale = HostProbe::ReferenceMs() / Median(times.probe_ms);
  for (double ms : times.raw_ms) {
    times.scaled_ms.push_back(ms * scale);
  }
  return times;
}

}  // namespace perfbench

#endif  // PERFBENCH_PB_PROBE_H_
