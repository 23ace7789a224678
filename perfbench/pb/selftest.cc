// Oracle self-test: every correctness check of the benchmark accepts a
// correct result and rejects a deliberately wrong one.  Exits non-zero if
// any expectation fails.
//
//   python3 perfbench/run.py --self-test
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "pb/oracles.h"
#include "src/cluster/cluster.h"
#include "src/policy/hybrid.h"
#include "src/sim/shard_source.h"
#include "src/sim/sweep.h"
#include "src/workload/generator.h"

namespace {

using perfbench::Violations;

int failures = 0;

void Expect(bool accepted, const Violations& v, const char* what) {
  const bool ok = accepted ? v.empty() : !v.empty();
  std::printf("%s %s (%zu violations)\n", ok ? "ok  " : "FAIL", what,
              v.size());
  if (!ok) {
    ++failures;
    for (size_t i = 0; i < v.size() && i < 3; ++i) {
      std::printf("       %s\n", v[i].c_str());
    }
  }
}

faas::GeneratorConfig SmallConfig() {
  faas::GeneratorConfig config;
  config.num_apps = 240;
  config.days = 3;
  config.instants_rate_cap_per_day = 2000.0;
  config.seed = 7;
  return config;
}

void TestFixedKeepAliveOracle() {
  faas::WorkloadGenerator generator(SmallConfig());
  const faas::GeneratorShardSource source(generator, 64);
  const faas::FixedKeepAliveFactory ten(faas::Duration::Minutes(10));
  const faas::FixedKeepAliveFactory nine(faas::Duration::Minutes(9));
  const std::vector<faas::PolicyPoint> points =
      faas::EvaluatePoliciesStreamed(source, {&ten, &nine}, 0);
  std::vector<faas::AppTrace> sample;
  for (int i = 0; i < 240; i += 5) {
    faas::Trace shard = generator.GenerateShard(i, i + 1);
    for (faas::AppTrace& app : shard.apps) {
      sample.push_back(std::move(app));
    }
  }
  const faas::Duration horizon = generator.config().Horizon();
  Expect(true,
         perfbench::CheckFixedKeepAlive(points[0].result, sample, horizon,
                                        faas::Duration::Minutes(10)),
         "fixed-10 result matches the fixed keep-alive oracle");
  Expect(false,
         perfbench::CheckFixedKeepAlive(points[1].result, sample, horizon,
                                        faas::Duration::Minutes(10)),
         "fixed-10 claimed for cold counts computed with a 9-minute "
         "keep-alive is rejected");
}

void TestLegacyReplayCheck() {
  const faas::Trace trace = faas::WorkloadGenerator(SmallConfig()).Generate();
  const faas::HybridPolicyFactory hybrid{faas::HybridPolicyConfig{}};
  faas::HybridPolicyConfig shifted;
  shifted.head_percentile = 1.0;
  const faas::HybridPolicyFactory other(shifted);
  const std::vector<faas::PolicyPoint> points =
      faas::EvaluatePolicies(trace, {&hybrid, &other}, 0);
  std::vector<size_t> sample;
  for (size_t i = 0; i < trace.apps.size(); i += 3) {
    sample.push_back(i);
  }
  Expect(true,
         perfbench::CheckAgainstLegacyReplay(points[0].result, trace, sample,
                                             hybrid),
         "hybrid sweep rows match the legacy in-place-merge replay");
  Expect(false,
         perfbench::CheckAgainstLegacyReplay(points[1].result, trace, sample,
                                             hybrid),
         "rows of a hybrid[1,99] sweep claimed as hybrid[5,99] are rejected");
}

void TestClusterConservation() {
  faas::GeneratorConfig gen = SmallConfig();
  gen.num_apps = 60;
  gen.days = 1;
  const faas::Trace trace = faas::WorkloadGenerator(gen).Generate();
  faas::ClusterConfig config;
  config.num_invokers = 3;
  config.overload.admission.capacity = 256;
  config.overload.admission.discipline = faas::AdmissionDiscipline::kCoDel;
  config.overload.invoker_concurrency_cap = 4;
  const faas::ClusterResult result = faas::ClusterSimulator(config).Replay(
      trace, faas::FixedKeepAliveFactory(faas::Duration::Minutes(10)));
  const int64_t invocations = trace.TotalInvocations();
  Expect(true, perfbench::CheckClusterConservation(result, invocations),
         "cluster replay conserves activations");
  faas::ClusterResult lost = result;
  ++lost.total_dropped;
  Expect(false, perfbench::CheckClusterConservation(lost, invocations),
         "an activation counted both completed and dropped is rejected");
  faas::ClusterResult undrained = result;
  ++undrained.overload.queued;
  Expect(false, perfbench::CheckClusterConservation(undrained, invocations),
         "a queued activation that never left the queue is rejected");
  faas::ClusterResult net = result;
  ++net.faults.net_messages_sent;
  Expect(false, perfbench::CheckClusterConservation(net, invocations),
         "a network message neither delivered nor lost is rejected");
  Expect(false, perfbench::CheckClusterConservation(result, invocations + 1),
         "a trace invocation the replay never saw is rejected");
}

void TestServeBooks() {
  perfbench::ClientBooks client;
  client.sent = 1000;
  client.replies = 1000;
  client.ok = 990;
  client.ok_cold = 40;
  client.not_ok = 10;
  faas::ServeStats server;
  server.frames_in = 1000;
  server.replies_out = 1000;
  server.bridge.requests = 1000;
  server.bridge.served_warm = 950;
  server.bridge.served_cold = 40;
  server.bridge.rejected = 10;
  for (int i = 0; i < 990; ++i) {
    server.latency.Record(1000);
  }
  Expect(true, perfbench::CheckServeBooks(client, server),
         "client books equal the server's stats");
  perfbench::ClientBooks missing = client;
  --missing.replies;
  Expect(false, perfbench::CheckServeBooks(missing, server),
         "a request without a reply is rejected");
  perfbench::ClientBooks twice = client;
  ++twice.duplicate_replies;
  Expect(false, perfbench::CheckServeBooks(twice, server),
         "a request answered twice is rejected");
  perfbench::ClientBooks warm = client;
  --warm.ok_cold;
  Expect(false, perfbench::CheckServeBooks(warm, server),
         "a cold reply the client booked as warm is rejected");
}

}  // namespace

int main() {
  TestFixedKeepAliveOracle();
  TestLegacyReplayCheck();
  TestClusterConservation();
  TestServeBooks();
  std::printf("%s\n", failures == 0 ? "all oracle self-tests passed"
                                    : "oracle self-tests FAILED");
  return failures == 0 ? 0 : 1;
}
