// Correctness oracles run on every benchmark invocation.  Each returns the
// list of violations it found (empty = the outputs are correct); a run with
// any violation reports no metric and exits non-zero.  The oracles are
// written independently of the code they check: the fixed keep-alive oracle
// recomputes an app's cold starts and idle time from its inter-arrival
// gaps, the hybrid check replays apps through the legacy per-app merge
// path, and the cluster / serve checks are conservation identities between
// counters that different components keep.
#ifndef PERFBENCH_PB_ORACLES_H_
#define PERFBENCH_PB_ORACLES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/policy/policy.h"
#include "src/serve/server.h"
#include "src/sim/simulator.h"
#include "src/trace/types.h"

namespace perfbench {

using Violations = std::vector<std::string>;

// Cold starts and idle (loaded, not executing) time of one app under a
// fixed keep-alive of `keepalive`, zero execution times, tail residency
// charged to the horizon — the window semantics of src/sim/simulator.h.
struct FixedKeepAliveExpectation {
  int64_t invocations = 0;
  int64_t cold_starts = 0;
  double idle_ms = 0.0;
};
FixedKeepAliveExpectation FixedKeepAliveOracle(const faas::AppTrace& app,
                                               faas::Duration horizon,
                                               faas::Duration keepalive);

// Checks `result` (claimed to be fixed keep-alive `keepalive`) on the apps
// in `sample`, matched to result rows by app name.
Violations CheckFixedKeepAlive(const faas::SimulationResult& result,
                               const std::vector<faas::AppTrace>& sample,
                               faas::Duration horizon,
                               faas::Duration keepalive);

// Checks that rows `sample` of `result` equal a replay of the same apps of
// `trace` through ColdStartSimulator::SimulateApp(const AppTrace&, ...) (the
// in-place-merge path) under a fresh instance from `factory`.
Violations CheckAgainstLegacyReplay(const faas::SimulationResult& result,
                                    const faas::Trace& trace,
                                    const std::vector<size_t>& sample,
                                    const faas::PolicyFactory& factory);

// Activation conservation for one cluster replay of a trace holding
// `trace_invocations` invocations: every invocation is accounted exactly
// once, every queued activation leaves the queue exactly once, and every
// network message is delivered or counted lost.
Violations CheckClusterConservation(const faas::ClusterResult& result,
                                    int64_t trace_invocations);

// The load client's own books for one server lifetime.
struct ClientBooks {
  int64_t sent = 0;
  int64_t replies = 0;
  int64_t ok = 0;
  int64_t ok_cold = 0;
  int64_t not_ok = 0;
  int64_t duplicate_replies = 0;  // Replies for an id already answered.
  int64_t unknown_replies = 0;    // Replies for an id never sent.
};

// Every request got exactly one reply, and the client's books equal the
// server's ServeStats.
Violations CheckServeBooks(const ClientBooks& client,
                           const faas::ServeStats& server);

}  // namespace perfbench

#endif  // PERFBENCH_PB_ORACLES_H_
