#include "src/telemetry/metrics.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "src/common/logging.h"

namespace faas {

namespace {

std::atomic<uint64_t> g_registry_serial{1};

// Thread-local shard cache.  Keyed by registry serial (not pointer) so a
// registry allocated at a recycled address never inherits stale shards.
// Bounded with move-to-front + tail eviction: a thread that outlives many
// registries would otherwise scan an ever-growing list of dead entries on
// every update.  Evicting a live registry's entry is safe — the next update
// mints a fresh shard and the old one keeps merging on scrape, exactly the
// shard-retirement path used for late registration.
struct ShardCacheEntry {
  uint64_t serial = 0;
  void* shard = nullptr;
};
constexpr size_t kMaxShardCacheEntries = 8;
thread_local std::vector<ShardCacheEntry> t_shard_cache;

// Histogram sums are fixed point with 64 fractional bits.  Scaling by a
// power of two is exact; the conversion truncates bits below 2^-64.
constexpr double kSumScale = 0x1p64;
constexpr double kMaxObservation = 0x1p62;

}  // namespace

double MetricSnapshot::Quantile(double q) const {
  if (kind != MetricKind::kHistogram || observations <= 0 || edges.empty()) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(observations);
  int64_t cumulative = 0;
  for (size_t bucket = 0; bucket < counts.size(); ++bucket) {
    const int64_t in_bucket = counts[bucket];
    cumulative += in_bucket;
    if (in_bucket <= 0 || static_cast<double>(cumulative) < rank) {
      continue;
    }
    if (bucket == 0) {
      return edges.front();  // Underflow clamps to the lowest edge.
    }
    if (bucket == counts.size() - 1) {
      return edges.back();  // Overflow clamps to the highest edge.
    }
    const double lower = edges[bucket - 1];
    const double upper = edges[bucket];
    const double before = static_cast<double>(cumulative - in_bucket);
    const double fraction =
        std::clamp((rank - before) / static_cast<double>(in_bucket), 0.0, 1.0);
    return lower + fraction * (upper - lower);
  }
  return edges.back();
}

const MetricSnapshot* RegistrySnapshot::Find(std::string_view name,
                                             std::string_view label) const {
  for (const MetricSnapshot& metric : metrics) {
    if (metric.name == name && metric.label == label) {
      return &metric;
    }
  }
  return nullptr;
}

MetricsRegistry::MetricsRegistry()
    : serial_(g_registry_serial.fetch_add(1, std::memory_order_relaxed)) {}

MetricsRegistry::~MetricsRegistry() = default;

int32_t MetricsRegistry::FindOrAdd(MetricKind kind, Definition definition) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = definition_index_.find(
      DefinitionKey{definition.name, definition.label});
  if (it != definition_index_.end()) {
    const Definition& existing = definitions_[static_cast<size_t>(it->second)];
    FAAS_CHECK(existing.kind == kind)
        << "metric '" << existing.name
        << "' re-registered with a different kind";
    if (kind == MetricKind::kHistogram) {
      FAAS_CHECK(*existing.edges == *definition.edges)
          << "histogram '" << existing.name << "' re-registered with new edges";
    }
    return existing.slot;
  }
  switch (kind) {
    case MetricKind::kCounter:
      definition.slot = num_counters_++;
      break;
    case MetricKind::kGauge:
      definition.slot = num_gauges_++;
      break;
    case MetricKind::kHistogram:
      definition.slot = num_histograms_++;
      break;
    case MetricKind::kSeries:
      definition.slot = num_series_++;
      break;
  }
  const int32_t slot = definition.slot;
  definitions_.push_back(std::move(definition));
  const Definition& stored = definitions_.back();
  definition_index_.emplace(DefinitionKey{stored.name, stored.label},
                            static_cast<int32_t>(definitions_.size() - 1));
  version_.store(static_cast<int64_t>(definitions_.size()),
                 std::memory_order_relaxed);
  return slot;
}

CounterId MetricsRegistry::AddCounter(std::string name, std::string help,
                                      std::string label) {
  Definition definition;
  definition.name = std::move(name);
  definition.label = std::move(label);
  definition.help = std::move(help);
  definition.kind = MetricKind::kCounter;
  return CounterId{FindOrAdd(MetricKind::kCounter, std::move(definition))};
}

GaugeId MetricsRegistry::AddGauge(std::string name, std::string help,
                                  std::string label) {
  Definition definition;
  definition.name = std::move(name);
  definition.label = std::move(label);
  definition.help = std::move(help);
  definition.kind = MetricKind::kGauge;
  return GaugeId{FindOrAdd(MetricKind::kGauge, std::move(definition))};
}

HistogramId MetricsRegistry::AddHistogram(std::string name, std::string help,
                                          std::vector<double> edges,
                                          std::string label) {
  FAAS_CHECK(!edges.empty()) << "histogram '" << name << "' needs edges";
  for (size_t i = 1; i < edges.size(); ++i) {
    FAAS_CHECK(edges[i - 1] < edges[i])
        << "histogram '" << name << "' edges must be strictly ascending";
  }
  Definition definition;
  definition.name = std::move(name);
  definition.label = std::move(label);
  definition.help = std::move(help);
  definition.kind = MetricKind::kHistogram;
  definition.edges =
      std::make_shared<const std::vector<double>>(std::move(edges));
  return HistogramId{FindOrAdd(MetricKind::kHistogram, std::move(definition))};
}

SeriesId MetricsRegistry::AddSeries(std::string name, std::string help,
                                    Duration bin_width, size_t num_bins,
                                    std::string label) {
  FAAS_CHECK(bin_width > Duration::Zero())
      << "series '" << name << "' needs a positive bin width";
  FAAS_CHECK(num_bins > 0) << "series '" << name << "' needs bins";
  Definition definition;
  definition.name = std::move(name);
  definition.label = std::move(label);
  definition.help = std::move(help);
  definition.kind = MetricKind::kSeries;
  definition.bin_width_ms = bin_width.millis();
  definition.num_bins = num_bins;
  return SeriesId{FindOrAdd(MetricKind::kSeries, std::move(definition))};
}

MetricsRegistry::Shard& MetricsRegistry::LocalShard() const {
  std::vector<ShardCacheEntry>& cache = t_shard_cache;
  ShardCacheEntry* cached = nullptr;
  for (size_t i = 0; i < cache.size(); ++i) {
    if (cache[i].serial == serial_) {
      if (i != 0) {
        std::swap(cache[0], cache[i]);  // Keep the hot registry up front.
      }
      cached = &cache[0];
      break;
    }
  }
  if (cached != nullptr) {
    Shard* shard = static_cast<Shard*>(cached->shard);
    if (shard->version == version_.load(std::memory_order_relaxed)) {
      return *shard;
    }
    // Definitions were added since this shard was sized.  Retire it (it
    // stays in shards_ and keeps merging on scrape) and fall through to
    // mint a fresh, full-size replacement.
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto shard = std::make_unique<Shard>();
  shard->version = static_cast<int64_t>(definitions_.size());
  shard->counters = std::vector<std::atomic<int64_t>>(
      static_cast<size_t>(num_counters_));
  shard->gauges.resize(static_cast<size_t>(num_gauges_));
  shard->histograms.resize(static_cast<size_t>(num_histograms_));
  shard->series.resize(static_cast<size_t>(num_series_));
  for (const Definition& definition : definitions_) {
    if (definition.kind == MetricKind::kHistogram) {
      HistogramCell& cell =
          shard->histograms[static_cast<size_t>(definition.slot)];
      cell.edges = definition.edges;
      cell.counts.assign(definition.edges->size() + 1, 0);
    } else if (definition.kind == MetricKind::kSeries) {
      SeriesCell& cell = shard->series[static_cast<size_t>(definition.slot)];
      cell.bin_width_ms = definition.bin_width_ms;
      cell.bins.assign(definition.num_bins, 0);
    }
  }
  Shard* raw = shard.get();
  shards_.push_back(std::move(shard));
  if (cached != nullptr) {
    cached->shard = raw;
  } else {
    if (cache.size() >= kMaxShardCacheEntries) {
      cache.pop_back();
    }
    cache.insert(cache.begin(), ShardCacheEntry{serial_, raw});
  }
  return *raw;
}

void MetricsRegistry::Inc(CounterId id, int64_t delta) {
  Shard& shard = LocalShard();
  FAAS_CHECK(id.valid() &&
             static_cast<size_t>(id.index) < shard.counters.size())
      << "counter used before registration (register metrics before the "
         "first update on any thread)";
  shard.counters[static_cast<size_t>(id.index)].fetch_add(
      delta, std::memory_order_relaxed);
}

void MetricsRegistry::Set(GaugeId id, double value, TimePoint at) {
  Shard& shard = LocalShard();
  FAAS_CHECK(id.valid() && static_cast<size_t>(id.index) < shard.gauges.size())
      << "gauge used before registration";
  GaugeCell& cell = shard.gauges[static_cast<size_t>(id.index)];
  cell.value = value;
  cell.at_ms = at.millis_since_origin();
  cell.set = true;
}

void MetricsRegistry::Observe(HistogramId id, double value) {
  Shard& shard = LocalShard();
  FAAS_CHECK(id.valid() &&
             static_cast<size_t>(id.index) < shard.histograms.size())
      << "histogram used before registration";
  HistogramCell& cell = shard.histograms[static_cast<size_t>(id.index)];
  // counts[0] is underflow, counts[i] covers [edges[i-1], edges[i]), and
  // counts[edges.size()] is overflow; upper_bound yields exactly that index
  // (values on an edge land in the bucket whose lower edge they equal).
  const std::vector<double>& edges = *cell.edges;
  const size_t bucket = static_cast<size_t>(
      std::upper_bound(edges.begin(), edges.end(), value) - edges.begin());
  FAAS_CHECK(std::fabs(value) < kMaxObservation)
      << "histogram observation out of range: " << value;
  ++cell.counts[bucket];
  ++cell.observations;
  cell.sum += static_cast<unsigned __int128>(
      static_cast<__int128>(value * kSumScale));
}

void MetricsRegistry::SeriesAdd(SeriesId id, TimePoint at, int64_t delta) {
  Shard& shard = LocalShard();
  FAAS_CHECK(id.valid() && static_cast<size_t>(id.index) < shard.series.size())
      << "series used before registration";
  SeriesCell& cell = shard.series[static_cast<size_t>(id.index)];
  int64_t bin = at.millis_since_origin() / cell.bin_width_ms;
  bin = std::clamp<int64_t>(bin, 0,
                            static_cast<int64_t>(cell.bins.size()) - 1);
  cell.bins[static_cast<size_t>(bin)] += delta;
}

int64_t MetricsRegistry::CounterValue(CounterId id) const {
  FAAS_CHECK(id.valid()) << "invalid counter id";
  int64_t total = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (static_cast<size_t>(id.index) < shard->counters.size()) {
      total += shard->counters[static_cast<size_t>(id.index)].load(
          std::memory_order_relaxed);
    }
  }
  return total;
}

int64_t MetricsRegistry::SumCountersByBase(std::string_view name) const {
  std::vector<int32_t> slots;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Definition& definition : definitions_) {
      if (definition.kind == MetricKind::kCounter && definition.name == name) {
        slots.push_back(definition.slot);
      }
    }
  }
  int64_t total = 0;
  for (int32_t slot : slots) {
    total += CounterValue(CounterId{slot});
  }
  return total;
}

RegistrySnapshot MetricsRegistry::Scrape() const {
  RegistrySnapshot snapshot;
  std::lock_guard<std::mutex> lock(mu_);
  snapshot.metrics.reserve(definitions_.size());
  for (const Definition& definition : definitions_) {
    MetricSnapshot metric;
    metric.name = definition.name;
    metric.label = definition.label;
    metric.help = definition.help;
    metric.kind = definition.kind;
    const size_t slot = static_cast<size_t>(definition.slot);
    switch (definition.kind) {
      case MetricKind::kCounter:
        for (const std::unique_ptr<Shard>& shard : shards_) {
          if (slot < shard->counters.size()) {
            metric.counter +=
                shard->counters[slot].load(std::memory_order_relaxed);
          }
        }
        break;
      case MetricKind::kGauge:
        for (const std::unique_ptr<Shard>& shard : shards_) {
          if (slot >= shard->gauges.size()) {
            continue;
          }
          const GaugeCell& cell = shard->gauges[slot];
          if (!cell.set) {
            continue;
          }
          // Latest simulation timestamp wins; ties resolve to the larger
          // value so the merge is independent of shard order.
          if (!metric.gauge_set || cell.at_ms > metric.gauge_at.millis_since_origin() ||
              (cell.at_ms == metric.gauge_at.millis_since_origin() &&
               cell.value > metric.gauge)) {
            metric.gauge = cell.value;
            metric.gauge_at = TimePoint(cell.at_ms);
            metric.gauge_set = true;
          }
        }
        break;
      case MetricKind::kHistogram:
        metric.edges = *definition.edges;
        metric.counts.assign(definition.edges->size() + 1, 0);
        {
          unsigned __int128 sum = 0;
          for (const std::unique_ptr<Shard>& shard : shards_) {
            if (slot >= shard->histograms.size()) {
              continue;
            }
            const HistogramCell& cell = shard->histograms[slot];
            for (size_t i = 0; i < cell.counts.size(); ++i) {
              metric.counts[i] += cell.counts[i];
            }
            metric.observations += cell.observations;
            sum += cell.sum;
          }
          // One rounding, of the exact total, whatever the shard split.
          metric.sum = static_cast<double>(static_cast<__int128>(sum)) /
                       kSumScale;
        }
        break;
      case MetricKind::kSeries:
        metric.bin_width_ms = definition.bin_width_ms;
        metric.bins.assign(definition.num_bins, 0);
        for (const std::unique_ptr<Shard>& shard : shards_) {
          if (slot >= shard->series.size()) {
            continue;
          }
          const std::vector<int64_t>& bins = shard->series[slot].bins;
          for (size_t i = 0; i < bins.size(); ++i) {
            metric.bins[i] += bins[i];
          }
        }
        break;
    }
    snapshot.metrics.push_back(std::move(metric));
  }
  return snapshot;
}

size_t MetricsRegistry::num_metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  return definitions_.size();
}

}  // namespace faas
