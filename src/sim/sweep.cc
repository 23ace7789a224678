#include "src/sim/sweep.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <utility>

#include "src/common/logging.h"
#include "src/common/parallel.h"
#include "src/trace/entity_index.h"

namespace faas {

namespace {

// Shared tail of both sweep paths: percentile + waste roll-ups and the
// baseline normalisation.
void FinalizePoints(std::vector<PolicyPoint>& points, size_t baseline_index) {
  for (PolicyPoint& point : points) {
    point.cold_start_p75 = point.result.AppColdStartPercentile(75.0);
    point.wasted_memory_minutes = point.result.TotalWastedMemoryMinutes();
  }
  const double baseline_waste = points[baseline_index].wasted_memory_minutes;
  for (PolicyPoint& point : points) {
    point.normalized_wasted_memory_pct =
        baseline_waste > 0.0
            ? 100.0 * point.wasted_memory_minutes / baseline_waste
            : 0.0;
  }
}

// Calls cell(p, i) for every (policy p, app i) of `compiled` on up to
// num_threads threads (0 = hardware concurrency).  One task simulates one
// chunk of apps under one policy: chunks keep the task count well above the
// thread count for load balance without paying one dispatch per app.  Every
// cell must write its own slot, so scheduling order cannot change the
// output.
void ForEachCell(const CompiledTrace& compiled, size_t num_policies,
                 int num_threads,
                 const std::function<void(size_t, size_t)>& cell) {
  const size_t num_apps = compiled.num_apps();
  const int threads = num_threads == 0 ? HardwareThreads() : num_threads;
  const size_t chunk_size = std::clamp<size_t>(
      num_apps / std::max<size_t>(1, static_cast<size_t>(threads) * 4), 1,
      256);
  const size_t num_chunks =
      num_apps == 0 ? 0 : (num_apps + chunk_size - 1) / chunk_size;

  // The daily-rate distribution is heavy-tailed, so a few chunks can carry
  // most of the invocations; with dynamic claiming a giant chunk picked up
  // last serialises the whole region behind one thread.  Schedule tasks in
  // descending chunk-invocation order instead (stable, so equal-cost tasks
  // keep policy-major order and the permutation is deterministic), claiming
  // one task at a time.
  std::vector<int64_t> chunk_cost(num_chunks, 0);
  for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
    const size_t begin = chunk * chunk_size;
    const size_t end = std::min(begin + chunk_size, num_apps);
    for (size_t i = begin; i < end; ++i) {
      chunk_cost[chunk] += static_cast<int64_t>(compiled.spans[i].size());
    }
  }
  std::vector<size_t> task_order(num_policies * num_chunks);
  std::iota(task_order.begin(), task_order.end(), size_t{0});
  std::stable_sort(task_order.begin(), task_order.end(),
                   [&](size_t a, size_t b) {
                     return chunk_cost[a % num_chunks] >
                            chunk_cost[b % num_chunks];
                   });

  ParallelFor(
      task_order.size(),
      [&](size_t slot) {
        const size_t task = task_order[slot];
        const size_t p = task / num_chunks;
        const size_t begin = (task % num_chunks) * chunk_size;
        const size_t end = std::min(begin + chunk_size, num_apps);
        for (size_t i = begin; i < end; ++i) {
          cell(p, i);
        }
      },
      num_threads, /*chunk=*/1);
}

}  // namespace

std::vector<PolicyPoint> EvaluatePolicies(
    const Trace& trace, const std::vector<const PolicyFactory*>& factories,
    size_t baseline_index, const SimulatorOptions& options) {
  return EvaluatePolicies(CompiledTrace::Compile(trace, options.num_threads),
                          factories, baseline_index, options);
}

std::vector<PolicyPoint> EvaluatePolicies(
    const CompiledTrace& compiled,
    const std::vector<const PolicyFactory*>& factories, size_t baseline_index,
    const SimulatorOptions& options) {
  FAAS_CHECK(baseline_index < factories.size()) << "baseline out of range";
  const ColdStartSimulator simulator(options);
  const size_t num_apps = compiled.num_apps();
  const size_t num_policies = factories.size();

  std::vector<PolicyPoint> points(num_policies);
  for (size_t p = 0; p < num_policies; ++p) {
    points[p].name = factories[p]->name();
    points[p].result.policy_name = points[p].name;
    points[p].result.entities = compiled.entities;
    points[p].result.apps.resize(num_apps);
  }

  // Telemetry: one instrument bundle per policy, registered on this thread
  // before the parallel region so worker shards are sized correctly.  The
  // Chrome-trace process lane is the policy ordinal and kAppReplay trace ids
  // are p * num_apps + app, so the collected span set is a deterministic
  // function of the sweep shape, independent of --threads.
  std::vector<SimPolicyInstruments> instruments;
  if (options.telemetry != nullptr) {
    instruments.reserve(num_policies);
    for (size_t p = 0; p < num_policies; ++p) {
      instruments.push_back(SimPolicyInstruments::Register(
          *options.telemetry, factories[p]->name(), static_cast<int16_t>(p),
          static_cast<int64_t>(p * num_apps), compiled.horizon));
    }
  }

  ForEachCell(compiled, num_policies, options.num_threads,
              [&](size_t p, size_t i) {
                const std::unique_ptr<KeepAlivePolicy> policy =
                    factories[p]->CreateForApp();
                points[p].result.apps[i] = simulator.SimulateApp(
                    compiled, i, *policy,
                    instruments.empty() ? nullptr : &instruments[p]);
              });

  FinalizePoints(points, baseline_index);
  return points;
}

std::vector<PolicyPoint> EvaluatePoliciesStreamed(
    const ShardSource& source,
    const std::vector<const PolicyFactory*>& factories, size_t baseline_index,
    const SimulatorOptions& options, const StreamingSweepOptions& /*stream*/) {
  FAAS_CHECK(baseline_index < factories.size()) << "baseline out of range";
  FAAS_CHECK(options.telemetry == nullptr)
      << "telemetry is not supported in streamed sweeps (instrument "
         "registration needs the app population up front); run materialized";
  const ColdStartSimulator simulator(options);
  const int num_shards = source.num_shards();
  const size_t num_policies = factories.size();

  std::vector<PolicyPoint> points(num_policies);
  for (size_t p = 0; p < num_policies; ++p) {
    points[p].name = factories[p]->name();
    points[p].result.policy_name = points[p].name;
  }

  // One arena, recycled across shards: the source builds shard k on its
  // own width, then this thread simulates it.  Shards are consumed in index
  // order, which is what makes the global ids below canonical.
  CompiledTrace compiled;
  auto entities = std::make_shared<EntityIndex>();
  size_t app_offset = 0;  // global dense id of the next surviving app
  for (int k = 0; k < num_shards; ++k) {
    source.Fill(k, &compiled);
    const size_t local_apps = compiled.num_apps();
    // Fold the shard's surviving apps into the global identity space: ids
    // are positional, so interning in shard-consumption order reproduces
    // the canonical ids of the materialized path exactly.
    for (size_t i = 0; i < local_apps; ++i) {
      const AppId local(static_cast<int64_t>(i));
      entities->AddApp(compiled.entities->OwnerName(local),
                       compiled.entities->AppName(local));
    }
    for (size_t p = 0; p < num_policies; ++p) {
      points[p].result.apps.resize(app_offset + local_apps);
    }

    // The same (policy x app-chunk) cells as the materialized engine,
    // scoped to this shard.
    ForEachCell(compiled, num_policies, options.num_threads,
                [&](size_t p, size_t i) {
                  const std::unique_ptr<KeepAlivePolicy> policy =
                      factories[p]->CreateForApp();
                  AppSimResult result =
                      simulator.SimulateApp(compiled, i, *policy);
                  // SimulateApp stamps the shard-local id; lift it to the
                  // global dense range.
                  result.app = AppId(static_cast<int64_t>(app_offset + i));
                  points[p].result.apps[app_offset + i] = std::move(result);
                });
    app_offset += local_apps;
  }

  const std::shared_ptr<const EntityIndex> shared_entities =
      std::move(entities);
  for (size_t p = 0; p < num_policies; ++p) {
    points[p].result.entities = shared_entities;
  }
  FinalizePoints(points, baseline_index);
  return points;
}

}  // namespace faas
