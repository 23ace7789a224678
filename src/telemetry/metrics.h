// Metrics registry with per-thread shards.
//
// The sweep engine touches a metric once (or twice) per simulated
// invocation, from every pool worker at once; a single shared cell would
// serialise the whole sweep on one cache line.  Instead, every metric is a
// *definition* (name, kind, bucket edges) and each thread lazily creates a
// private shard holding one slot per definition.  Hot-path updates touch
// only the calling thread's shard; Scrape() merges all shards into one
// snapshot.  The pattern mirrors the chunked ThreadPool design: contention
// is paid O(threads) times at setup, never per increment.
//
// Concurrency contract:
//   - Registration must happen-before any update that uses the returned id
//     (the registering thread hands ids to workers through a fence such as
//     the thread-pool queue).  Late registration is allowed: a thread whose
//     shard predates newer definitions retires it — the old shard keeps its
//     accumulated values and still merges on scrape — and mints a fresh
//     full-size shard on its next update.
//   - Counter cells are relaxed atomics, so CounterValue()/SumCountersByBase()
//     may be called concurrently with updates (the --progress heartbeat).
//   - Gauges, histograms, and minute series use plain owner-thread cells;
//     a full Scrape() requires quiescence (call it after the parallel
//     region joins, as the sweep engine and cluster replayer do).
//
// Merge semantics are order-independent so the snapshot is bit-identical
// at any thread count: counters, histogram buckets, and series bins add;
// gauges keep the sample with the latest simulation timestamp (ties resolve
// to the larger value).  Histogram sums accumulate in 128-bit fixed point
// (units of 2^-64), so they add exactly and no shard split can change the
// rounding; each observation must lie within +/-2^62.
//
// Metric kinds:
//   Counter    monotonically increasing int64.
//   Gauge      last-set double, stamped with simulation time.
//   Histogram  fixed explicit bucket edges with distinct underflow and
//              overflow buckets; values on an edge land in the bucket whose
//              lower edge they equal (left-closed intervals).
//   Series     per-simulation-minute (or any fixed bin) int64 time series,
//              preallocated for a known horizon.

#ifndef SRC_TELEMETRY_METRICS_H_
#define SRC_TELEMETRY_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/time.h"

namespace faas {

// Typed metric handles; cheap to copy, invalid until assigned from Add*.
struct CounterId {
  int32_t index = -1;
  bool valid() const { return index >= 0; }
};
struct GaugeId {
  int32_t index = -1;
  bool valid() const { return index >= 0; }
};
struct HistogramId {
  int32_t index = -1;
  bool valid() const { return index >= 0; }
};
struct SeriesId {
  int32_t index = -1;
  bool valid() const { return index >= 0; }
};

enum class MetricKind { kCounter, kGauge, kHistogram, kSeries };

// One merged metric in a scrape, identified by base name + optional label
// (a pre-rendered Prometheus label body such as `policy="hybrid"`).
struct MetricSnapshot {
  std::string name;   // Base name, e.g. "faas_sim_cold_starts_total".
  std::string label;  // Label body without braces; empty = unlabelled.
  std::string help;
  MetricKind kind = MetricKind::kCounter;

  // kCounter
  int64_t counter = 0;

  // kGauge
  double gauge = 0.0;
  TimePoint gauge_at;
  bool gauge_set = false;

  // kHistogram: counts has edges.size() + 1 entries:
  //   counts[0]                underflow (value < edges.front())
  //   counts[i] for 0 < i < n  edges[i-1] <= value < edges[i]
  //   counts[n]                overflow (value >= edges.back())
  std::vector<double> edges;
  std::vector<int64_t> counts;
  int64_t observations = 0;
  double sum = 0.0;

  // kSeries
  int64_t bin_width_ms = 0;
  std::vector<int64_t> bins;

  // Linear-interpolated quantile (q in [0, 1]) from the bucket counts.
  // Underflow clamps to the first edge, overflow to the last; an empty
  // histogram returns 0.0.
  double Quantile(double q) const;
};

struct RegistrySnapshot {
  std::vector<MetricSnapshot> metrics;  // In registration order.

  // First metric matching base name + label, or nullptr.
  const MetricSnapshot* Find(std::string_view name,
                             std::string_view label = "") const;
};

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Registration is idempotent on (name, label): re-registering returns the
  // existing id (kind and shape must match).  Thread-safe, but see the
  // header contract: register before worker threads start updating.
  CounterId AddCounter(std::string name, std::string help,
                       std::string label = "");
  GaugeId AddGauge(std::string name, std::string help, std::string label = "");
  // `edges` must be strictly ascending with at least one entry.
  HistogramId AddHistogram(std::string name, std::string help,
                           std::vector<double> edges, std::string label = "");
  // Fixed `num_bins` bins of `bin_width`; samples past the end clamp into
  // the last bin (and before the origin into the first).
  SeriesId AddSeries(std::string name, std::string help, Duration bin_width,
                     size_t num_bins, std::string label = "");

  // --- Hot-path updates (thread-local shard; see concurrency contract) ---
  void Inc(CounterId id, int64_t delta = 1);
  void Set(GaugeId id, double value, TimePoint at);
  void Observe(HistogramId id, double value);
  void SeriesAdd(SeriesId id, TimePoint at, int64_t delta = 1);

  // Concurrent-safe sum of a counter across all shards (relaxed reads).
  int64_t CounterValue(CounterId id) const;
  // Sum of every counter whose base name equals `name` (across labels).
  int64_t SumCountersByBase(std::string_view name) const;

  // Full merge of all shards.  Requires quiescence for gauges, histograms
  // and series (no concurrent updates); counters are always safe.
  RegistrySnapshot Scrape() const;

  size_t num_metrics() const;

 private:
  struct GaugeCell {
    double value = 0.0;
    int64_t at_ms = 0;
    bool set = false;
  };
  struct HistogramCell {
    // Shared with the definition so the hot path reads edges without a lock
    // (definitions are immutable once registered).
    std::shared_ptr<const std::vector<double>> edges;
    std::vector<int64_t> counts;  // edges->size() + 1
    int64_t observations = 0;
    // Fixed point in units of 2^-64; unsigned so adds wrap instead of
    // overflowing (the total is read back as signed).
    unsigned __int128 sum = 0;
  };
  struct SeriesCell {
    int64_t bin_width_ms = 0;
    std::vector<int64_t> bins;
  };
  struct Shard {
    // Fixed-size at construction: one slot per definition then registered.
    // A shard is never resized — when definitions are added later, the
    // owning thread retires it (it still merges on scrape) and creates a
    // fresh one, so concurrent counter readers never race a reallocation.
    int64_t version = 0;  // definitions_.size() at creation.
    std::vector<std::atomic<int64_t>> counters;
    std::vector<GaugeCell> gauges;
    std::vector<HistogramCell> histograms;
    std::vector<SeriesCell> series;
  };
  struct Definition {
    std::string name;
    std::string label;
    std::string help;
    MetricKind kind = MetricKind::kCounter;
    int32_t slot = 0;  // Index within the kind-specific shard vector.
    std::shared_ptr<const std::vector<double>> edges;  // kHistogram
    int64_t bin_width_ms = 0;                          // kSeries
    size_t num_bins = 0;                               // kSeries
  };

  // Composite (name, label) key viewing into a stored Definition; lookups
  // hash without concatenating or copying strings.
  struct DefinitionKey {
    std::string_view name;
    std::string_view label;
    friend bool operator==(const DefinitionKey&,
                           const DefinitionKey&) = default;
  };
  struct DefinitionKeyHash {
    size_t operator()(const DefinitionKey& key) const noexcept {
      const size_t h = std::hash<std::string_view>{}(key.name);
      return h ^ (std::hash<std::string_view>{}(key.label) +
                  0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
    }
  };

  // Returns this thread's shard, creating + registering it on first use.
  Shard& LocalShard() const;
  int32_t FindOrAdd(MetricKind kind, Definition definition);

  const uint64_t serial_;  // Distinguishes registries in thread-local caches.
  // Bumped on every new definition; a cached shard with an older version is
  // retired on the owner's next update (relaxed load on the hot path).
  std::atomic<int64_t> version_{0};

  mutable std::mutex mu_;
  // Deque keeps Definition addresses stable so the index below can view the
  // stored name/label strings; registration order is preserved for Scrape.
  std::deque<Definition> definitions_;
  std::unordered_map<DefinitionKey, int32_t, DefinitionKeyHash>
      definition_index_;
  // Slot counts per kind (sizes for newly created shards).
  int32_t num_counters_ = 0;
  int32_t num_gauges_ = 0;
  int32_t num_histograms_ = 0;
  int32_t num_series_ = 0;
  mutable std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace faas

#endif  // SRC_TELEMETRY_METRICS_H_
