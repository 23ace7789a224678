#include "pb/oracles.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>

namespace perfbench {

namespace {

template <class... Parts>
std::string Concat(const Parts&... parts) {
  std::ostringstream out;
  (out << ... << parts);
  return out.str();
}

void ExpectEq(Violations& v, const std::string& what, int64_t got,
              int64_t want) {
  if (got != want) {
    v.push_back(Concat(what, ": got ", got, ", want ", want));
  }
}

bool SameDouble(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

}  // namespace

FixedKeepAliveExpectation FixedKeepAliveOracle(const faas::AppTrace& app,
                                               faas::Duration horizon,
                                               faas::Duration keepalive) {
  std::vector<int64_t> times;
  for (const faas::FunctionTrace& function : app.functions) {
    for (faas::TimePoint t : function.invocations) {
      times.push_back(t.millis_since_origin());
    }
  }
  std::sort(times.begin(), times.end());
  FixedKeepAliveExpectation e;
  e.invocations = static_cast<int64_t>(times.size());
  if (times.empty()) {
    return e;
  }
  // The first invocation loads the image.  Each later gap to a distinct
  // instant either finds the image still loaded (idle for the whole gap) or
  // finds it expired (idle for the full keep-alive, then a cold start).
  // Invocations at an instant already seen run on the busy image.
  const int64_t k = keepalive.millis();
  e.cold_starts = 1;
  for (size_t i = 1; i < times.size(); ++i) {
    const int64_t gap = times[i] - times[i - 1];
    if (gap == 0) {
      continue;
    }
    if (gap <= k) {
      e.idle_ms += static_cast<double>(gap);
    } else {
      ++e.cold_starts;
      e.idle_ms += static_cast<double>(k);
    }
  }
  const int64_t tail = horizon.millis() - times.back();
  if (tail > 0) {
    e.idle_ms += static_cast<double>(std::min(k, tail));
  }
  return e;
}

Violations CheckFixedKeepAlive(const faas::SimulationResult& result,
                               const std::vector<faas::AppTrace>& sample,
                               faas::Duration horizon,
                               faas::Duration keepalive) {
  Violations v;
  std::unordered_map<std::string, size_t> row_of;
  for (size_t i = 0; i < result.apps.size(); ++i) {
    row_of.emplace(result.AppName(i), i);
  }
  for (const faas::AppTrace& app : sample) {
    const auto it = row_of.find(app.app_id);
    if (it == row_of.end()) {
      v.push_back(Concat(result.policy_name, ": app ", app.app_id,
                         " missing from the result"));
      continue;
    }
    const faas::AppSimResult& got = result.apps[it->second];
    const FixedKeepAliveExpectation want =
        FixedKeepAliveOracle(app, horizon, keepalive);
    const std::string where = Concat(result.policy_name, " app ", app.app_id);
    ExpectEq(v, where + " invocations", got.invocations, want.invocations);
    ExpectEq(v, where + " cold starts", got.cold_starts, want.cold_starts);
    if (!SameDouble(got.ledger.idle_mb_ms, want.idle_ms)) {
      v.push_back(Concat(where, " idle ms: got ", got.ledger.idle_mb_ms,
                         ", want ", want.idle_ms));
    }
  }
  return v;
}

Violations CheckAgainstLegacyReplay(const faas::SimulationResult& result,
                                    const faas::Trace& trace,
                                    const std::vector<size_t>& sample,
                                    const faas::PolicyFactory& factory) {
  Violations v;
  const faas::ColdStartSimulator legacy;
  for (size_t i : sample) {
    if (i >= result.apps.size() || i >= trace.apps.size()) {
      v.push_back(Concat(result.policy_name, ": sampled row ", i,
                         " out of range"));
      continue;
    }
    const std::unique_ptr<faas::KeepAlivePolicy> policy =
        factory.CreateForApp();
    const faas::AppSimResult want =
        legacy.SimulateApp(trace.apps[i], trace.horizon, *policy);
    const faas::AppSimResult& got = result.apps[i];
    const std::string where =
        Concat(result.policy_name, " app ", trace.apps[i].app_id);
    ExpectEq(v, where + " invocations", got.invocations, want.invocations);
    ExpectEq(v, where + " cold starts", got.cold_starts, want.cold_starts);
    ExpectEq(v, where + " pre-warm loads", got.prewarm_loads,
             want.prewarm_loads);
    if (!SameDouble(got.ledger.idle_mb_ms, want.ledger.idle_mb_ms)) {
      v.push_back(Concat(where, " idle ms: got ", got.ledger.idle_mb_ms,
                         ", want ", want.ledger.idle_mb_ms));
    }
  }
  return v;
}

Violations CheckClusterConservation(const faas::ClusterResult& r,
                                    int64_t trace_invocations) {
  Violations v;
  const std::string p = r.policy_name + " ";
  int64_t app_invocations = 0;
  int64_t app_cold = 0;
  for (const faas::ClusterAppResult& app : r.apps) {
    app_invocations += app.invocations;
    app_cold += app.cold_starts;
  }
  ExpectEq(v, p + "invocations replayed", r.total_invocations,
           trace_invocations);
  ExpectEq(v, p + "per-app invocations", app_invocations,
           r.total_invocations);
  ExpectEq(v, p + "per-app cold starts", app_cold, r.total_cold_starts);
  // Completed activations are the executions the invokers ran (no hedging
  // or retries in this configuration, so each ran exactly once).
  ExpectEq(v, p + "completed + dropped + rejected + abandoned + lost",
           r.total_cold_starts + r.total_warm_starts + r.total_dropped +
               r.total_rejected_outage + r.total_abandoned + r.total_lost,
           r.total_invocations);
  // FIFO/CoDel: an activation that entered the queue leaves it drained or
  // shed by age/shutdown; queue-full sheds are arrivals never queued.
  const faas::OverloadLedger& o = r.overload;
  ExpectEq(v, p + "queued = drained + shed", o.queued,
           o.drained + o.shed_deadline + o.shed_at_shutdown);
  if (o.TotalShed() > r.total_dropped) {
    v.push_back(Concat(p, "sheds ", o.TotalShed(), " exceed drops ",
                       r.total_dropped));
  }
  const faas::FaultLedger& f = r.faults;
  ExpectEq(v, p + "net sent + duplicates = delivered + lost",
           f.net_messages_sent + f.net_duplicates_delivered,
           f.net_delivered + f.net_lost_to_loss + f.net_lost_to_partition +
               f.net_lost_to_queue);
  return v;
}

Violations CheckServeBooks(const ClientBooks& c,
                           const faas::ServeStats& s) {
  Violations v;
  ExpectEq(v, "replies received vs requests sent", c.replies, c.sent);
  ExpectEq(v, "duplicate replies", c.duplicate_replies, 0);
  ExpectEq(v, "replies for unknown ids", c.unknown_replies, 0);
  ExpectEq(v, "server frames in vs client sent", s.frames_in, c.sent);
  ExpectEq(v, "server replies out vs client replies", s.replies_out,
           c.replies);
  ExpectEq(v, "server requests vs client sent", s.bridge.requests, c.sent);
  ExpectEq(v, "server served vs client ok", s.bridge.served(), c.ok);
  ExpectEq(v, "server cold vs client cold", s.bridge.served_cold, c.ok_cold);
  ExpectEq(v, "server shed + rejected vs client not-ok",
           s.bridge.rejected + s.ledger.TotalShed(), c.not_ok);
  ExpectEq(v, "server latency samples vs served", s.latency.count(),
           s.bridge.served());
  ExpectEq(v, "protocol errors", s.protocol_errors, 0);
  return v;
}

}  // namespace perfbench
