// Policy sweep harness: evaluates a set of policies on one trace and
// normalises wasted memory time against a baseline policy, producing the
// (cold-start %, normalized waste %) points that Figures 15-18 plot.
//
// The sweep engine compiles the trace once (CompiledTrace) and schedules
// (policy x app-shard) tasks on the shared thread pool — largest shard
// first, so a handful of invocation-heavy shards (the rate distribution is
// heavy-tailed) cannot serialise the tail of the region.  The merge/sort
// cost is paid once per sweep instead of once per policy point, and all
// policy points progress concurrently.  Each app still gets a fresh policy
// instance and writes its own result slot, so the output is bit-identical
// to evaluating the policies one after another on a single thread.
//
// EvaluatePoliciesStreamed replays the same sweep without ever holding the
// full trace: a ShardSource builds one compiled per-app-shard arena at a
// time, parallel across the shard's apps, then the shard's cells simulate
// on the pool with the same largest-first scheduling, and per-app results
// fold into the output in shard order.  Peak
// memory is O(shard size + results) instead of O(trace).  Output is
// bit-identical to the materialized path — see DESIGN.md for the
// determinism argument.

#ifndef SRC_SIM_SWEEP_H_
#define SRC_SIM_SWEEP_H_

#include <memory>
#include <string>
#include <vector>

#include "src/sim/compiled_trace.h"
#include "src/sim/shard_source.h"
#include "src/sim/simulator.h"

namespace faas {

struct PolicyPoint {
  std::string name;
  // 75th percentile of per-app cold-start percentage (the paper's headline
  // "3rd Quartile App Cold Start" metric).
  double cold_start_p75 = 0.0;
  // Total wasted memory time, minutes.
  double wasted_memory_minutes = 0.0;
  // Wasted memory time normalised to the baseline policy, percent
  // (100 = same as baseline, the 10-minute fixed keep-alive in the paper).
  double normalized_wasted_memory_pct = 0.0;
  // Full per-app results for CDF plots.
  SimulationResult result;
};

// Runs each factory on the trace; the entry at `baseline_index` defines 100%
// wasted memory time.  options.num_threads parallelises across (policy, app)
// pairs: 0 = hardware concurrency, <= 1 = sequential.  The Trace overload
// compiles the trace once and delegates.
std::vector<PolicyPoint> EvaluatePolicies(
    const Trace& trace,
    const std::vector<const PolicyFactory*>& factories,
    size_t baseline_index = 0, const SimulatorOptions& options = {});

std::vector<PolicyPoint> EvaluatePolicies(
    const CompiledTrace& compiled,
    const std::vector<const PolicyFactory*>& factories,
    size_t baseline_index = 0, const SimulatorOptions& options = {});

struct StreamingSweepOptions {
  // Upper bound on shard arenas alive at once.  The engine always holds
  // exactly one shard, which meets any bound >= 1, so the field has no
  // effect; it stays only because the repository benchmark
  // (perfbench/pb/sweep.cc) still sets it.
  int max_resident_shards = 2;
};

// Streaming counterpart of EvaluatePolicies: for each shard of `source` in
// order, builds its arena (Fill, on the source's width) on this thread,
// simulates every (policy, app) cell on options.num_threads, and folds the
// per-app results in, re-stamping shard-local app ids onto the global
// dense range.  Bit-identical to EvaluatePolicies on the equivalent
// materialized trace, for any shard size, source width and --threads.
// Telemetry is not supported in streamed mode (instrument registration
// needs the app population up front); options.telemetry must be null.
std::vector<PolicyPoint> EvaluatePoliciesStreamed(
    const ShardSource& source,
    const std::vector<const PolicyFactory*>& factories,
    size_t baseline_index = 0, const SimulatorOptions& options = {},
    const StreamingSweepOptions& stream = {});

}  // namespace faas

#endif  // SRC_SIM_SWEEP_H_
