#include "pb/probe.h"

#include <sched.h>

#include <algorithm>
#include <thread>
#include <utility>

#include "pb/common.h"

namespace perfbench {

namespace {

// Per thread: a 128 KB random cycle (cache-resident dependent loads, like
// the simulator's arena and histogram lookups) chased alongside an integer
// and floating-point dependency chain (like its arithmetic).
constexpr uint32_t kRingEntries = 1u << 15;
constexpr int kSteps = 3'000'000;
constexpr int kRepeats = 5;
// A round figure: Run() took 12-17 ms on the baseline VM (4-core Xeon) at
// 1 to 4 threads while it ran the sweeps at their slower speed.
constexpr double kReferenceMs = 15.0;

uint64_t Walk(const std::vector<uint32_t>& ring) {
  uint32_t index = 0;
  uint64_t hash = 0x9E3779B97F4A7C15ull;
  double value = 1.0;
  for (int i = 0; i < kSteps; ++i) {
    index = ring[index];
    hash = (hash ^ (hash >> 29)) * 0xBF58476D1CE4E5B9ull + index;
    value = value * 0.999999 + static_cast<double>(hash & 0xFF);
  }
  return hash + static_cast<uint64_t>(value);
}

}  // namespace

HostProbe::HostProbe(int threads, std::vector<int> cpus)
    : threads_(threads), cpus_(std::move(cpus)) {
  for (int t = 0; t < threads_; ++t) {
    // Sattolo's shuffle: one cycle through every entry.
    std::vector<uint32_t> ring(kRingEntries);
    for (uint32_t i = 0; i < kRingEntries; ++i) {
      ring[i] = i;
    }
    uint64_t state = MixSeed(static_cast<uint64_t>(t), 7);
    for (uint32_t i = kRingEntries - 1; i > 0; --i) {
      state = MixSeed(state, i);
      std::swap(ring[i], ring[state % i]);
    }
    rings_.push_back(std::move(ring));
  }
}

double HostProbe::Run() const {
  double fastest = RunOnce();
  for (int r = 1; r < kRepeats; ++r) {
    fastest = std::min(fastest, RunOnce());
  }
  return fastest;
}

double HostProbe::RunOnce() const {
  std::vector<uint64_t> sinks(static_cast<size_t>(threads_));
  std::vector<int64_t> elapsed(static_cast<size_t>(threads_));
  {
    std::vector<std::jthread> workers;  // Joined at the end of the block.
    for (int t = 0; t < threads_; ++t) {
      workers.emplace_back([this, t, &sinks, &elapsed] {
        if (!cpus_.empty()) {
          cpu_set_t one;
          CPU_ZERO(&one);
          CPU_SET(cpus_[static_cast<size_t>(t)], &one);
          sched_setaffinity(0, sizeof(one), &one);
        }
        const int64_t t0 = NowNs();
        sinks[t] = Walk(rings_[t]);
        elapsed[t] = NowNs() - t0;
      });
    }
  }
  double ms = 0.0;
  for (int64_t ns : elapsed) {
    ms += static_cast<double>(ns) / 1e6 / threads_;
  }
  // Keep the walks observable so the compiler cannot drop them.
  volatile uint64_t sink = 0;
  for (uint64_t s : sinks) {
    sink = sink + s;
  }
  return ms;
}

double HostProbe::ReferenceMs() { return kReferenceMs; }

}  // namespace perfbench
