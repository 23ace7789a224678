// Network model + RPC plane tests: fault-plan parsing for the network
// classes, link-level drop/duplicate/queue/rate semantics, duplicate-delivery
// idempotency, partition-heal recovery, network-off byte-identity against the
// baseline engine, ledger determinism across thread counts, and the
// controller's conservation identities around the admission drain probe.

#include "src/cluster/network.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/cluster.h"
#include "src/cluster/event_queue.h"
#include "src/common/parallel.h"
#include "src/faults/fault_plan.h"
#include "src/policy/hybrid.h"
#include "src/policy/policy.h"
#include "src/workload/arrival.h"
#include "src/workload/generator.h"

namespace faas {
namespace {

// One app, one function, invocations every `period`, fixed execution time
// (minimum == maximum pins the log-normal sample exactly).
Trace MakeTrace(int invocations, Duration period, Duration execution) {
  Trace trace;
  trace.horizon = period * static_cast<double>(invocations + 1);
  AppTrace app;
  app.owner_id = "o";
  app.app_id = "app";
  app.memory = {128.0, 120.0, 150.0, 10};
  FunctionTrace function;
  function.function_id = "f";
  function.trigger = TriggerType::kHttp;
  for (int i = 0; i < invocations; ++i) {
    function.invocations.push_back(
        TimePoint(static_cast<int64_t>(i) * period.millis()));
  }
  const double exec_ms = static_cast<double>(execution.millis());
  function.execution = {exec_ms, exec_ms, exec_ms, invocations};
  app.functions.push_back(std::move(function));
  trace.apps.push_back(std::move(app));
  return trace;
}

// ---- Fault-plan network classes -------------------------------------------

TEST(NetFaultPlanTest, ParsesNetworkClauses) {
  std::string error;
  const auto plan = FaultPlan::Parse(
      "partition:at=5m,for=2m,invoker=1,dir=up; "
      "netloss:at=10m,for=30s,p=0.25; "
      "netdup:at=15m,for=1m,p=0.5,invoker=0; "
      "netreorder:at=20m,for=45s,p=0.8,delay=250ms",
      &error);
  ASSERT_TRUE(plan.has_value()) << error;
  ASSERT_EQ(plan->partitions.size(), 1u);
  EXPECT_EQ(plan->partitions[0].invoker, 1);
  EXPECT_EQ(plan->partitions[0].start,
            TimePoint::Origin() + Duration::Minutes(5));
  EXPECT_EQ(plan->partitions[0].duration, Duration::Minutes(2));
  EXPECT_EQ(plan->partitions[0].dir, NetDirection::kUp);
  ASSERT_EQ(plan->loss_windows.size(), 1u);
  EXPECT_EQ(plan->loss_windows[0].invoker, -1);  // Defaults to every link.
  EXPECT_DOUBLE_EQ(plan->loss_windows[0].probability, 0.25);
  ASSERT_EQ(plan->duplicate_windows.size(), 1u);
  EXPECT_EQ(plan->duplicate_windows[0].invoker, 0);
  ASSERT_EQ(plan->reorder_windows.size(), 1u);
  EXPECT_EQ(plan->reorder_windows[0].extra_delay, Duration::Millis(250));
  EXPECT_FALSE(plan->Empty());
  EXPECT_TRUE(plan->HasNetworkFaults());
}

TEST(NetFaultPlanTest, ParseRejectsMalformedNetworkClauses) {
  std::string error;
  EXPECT_FALSE(
      FaultPlan::Parse("partition:at=1m,for=1m,dir=sideways", &error)
          .has_value());
  EXPECT_FALSE(FaultPlan::Parse("netloss:at=1m,for=1m", &error).has_value());
  EXPECT_FALSE(
      FaultPlan::Parse("netdup:at=1m,for=1m,p=oops", &error).has_value());
  EXPECT_FALSE(
      FaultPlan::Parse("netreorder:at=1m,p=0.5", &error).has_value());
}

TEST(NetFaultPlanTest, ValidateBoundsNetworkFaults) {
  FaultPlan plan;
  plan.partitions.push_back(
      {5, TimePoint::Origin(), Duration::Minutes(1), NetDirection::kBoth});
  EXPECT_NE(plan.Validate(2), "");  // Invoker 5 in a 2-worker cluster.
  EXPECT_EQ(plan.Validate(6), "");
  FaultPlan all_links;
  all_links.partitions.push_back(
      {-1, TimePoint::Origin(), Duration::Minutes(1), NetDirection::kBoth});
  EXPECT_EQ(all_links.Validate(2), "");  // -1 = every link is fine.
  FaultPlan bad_p;
  bad_p.loss_windows.push_back(
      {-1, TimePoint::Origin(), Duration::Minutes(1), 1.5});
  EXPECT_NE(bad_p.Validate(2), "");
}

TEST(NetFaultPlanTest, LookupsMatchDirectionAndWindow) {
  FaultPlan plan;
  plan.partitions.push_back({0, TimePoint::Origin() + Duration::Minutes(5),
                             Duration::Minutes(2), NetDirection::kUp});
  plan.loss_windows.push_back(
      {-1, TimePoint::Origin() + Duration::Minutes(1), Duration::Minutes(1),
       0.1});
  plan.loss_windows.push_back(
      {0, TimePoint::Origin() + Duration::Minutes(1), Duration::Minutes(1),
       0.4});
  const TimePoint in_partition = TimePoint::Origin() + Duration::Minutes(6);
  EXPECT_TRUE(plan.LinkPartitionedAt(0, NetDirection::kUp, in_partition));
  EXPECT_FALSE(plan.LinkPartitionedAt(0, NetDirection::kDown, in_partition));
  EXPECT_FALSE(plan.LinkPartitionedAt(1, NetDirection::kUp, in_partition));
  EXPECT_FALSE(plan.LinkPartitionedAt(
      0, NetDirection::kUp, TimePoint::Origin() + Duration::Minutes(8)));
  const TimePoint in_loss = TimePoint::Origin() + Duration::Millis(90000);
  EXPECT_DOUBLE_EQ(plan.NetLossProbabilityAt(0, in_loss), 0.4);  // Max wins.
  EXPECT_DOUBLE_EQ(plan.NetLossProbabilityAt(1, in_loss), 0.1);
  EXPECT_DOUBLE_EQ(plan.NetLossProbabilityAt(0, TimePoint::Origin()), 0.0);
}

// ---- NetworkModel link semantics ------------------------------------------

TEST(NetworkModelTest, TailDropBoundsInFlightMessages) {
  EventQueue queue;
  const FaultPlan no_faults;
  NetworkConfig config;
  config.enabled = true;
  config.uplink.queue_capacity = 1;
  NetworkModel net(&queue, config, &no_faults, 1, Rng(1));
  int delivered = 0;
  for (int i = 0; i < 3; ++i) {
    net.Send(NetDirection::kUp, 0, NetPriority::kData,
             [&delivered]() { ++delivered; });
  }
  queue.Run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net.counters().lost_to_queue, 2);
  EXPECT_EQ(net.counters().delivered, 1);
}

TEST(NetworkModelTest, PriorityDisciplineSparesControlTraffic) {
  EventQueue queue;
  const FaultPlan no_faults;
  NetworkConfig config;
  config.enabled = true;
  config.uplink.queue_capacity = 4;
  config.uplink.discipline = NetQueueDiscipline::kPriority;
  NetworkModel net(&queue, config, &no_faults, 1, Rng(1));
  int delivered = 0;
  const auto deliver = [&delivered]() { ++delivered; };
  // Data saturates its 3/4 share; the reserved headroom still admits
  // control traffic.
  for (int i = 0; i < 4; ++i) {
    net.Send(NetDirection::kUp, 0, NetPriority::kData, deliver);
  }
  EXPECT_EQ(net.counters().lost_to_queue, 1);  // 4th data message dropped.
  net.Send(NetDirection::kUp, 0, NetPriority::kControl, deliver);
  EXPECT_EQ(net.counters().lost_to_queue, 1);  // Control got in.
  queue.Run();
  EXPECT_EQ(delivered, 4);
}

TEST(NetworkModelTest, LeakyBucketSerializesDeliveries) {
  EventQueue queue;
  const FaultPlan no_faults;
  NetworkConfig config;
  config.enabled = true;
  config.uplink.rate_msgs_per_sec = 1.0;
  config.uplink.latency_median_ms = 0.1;
  NetworkModel net(&queue, config, &no_faults, 1, Rng(1));
  std::vector<int64_t> delivery_ms;
  const auto stamp = [&queue, &delivery_ms]() {
    delivery_ms.push_back(queue.now().millis_since_origin());
  };
  net.Send(NetDirection::kUp, 0, NetPriority::kData, stamp);
  net.Send(NetDirection::kUp, 0, NetPriority::kData, stamp);
  queue.Run();
  ASSERT_EQ(delivery_ms.size(), 2u);
  // Each message occupies the 1 msg/s serializer for a full interval, so
  // the second arrives at least a second after the first.
  EXPECT_GE(delivery_ms[1] - delivery_ms[0], 1000);
}

TEST(NetworkModelTest, EmptyPlanDrawsNoFaultRandomness) {
  // Two models over the same seed, one with an (inactive-at-send-time) loss
  // window appended: fault lookups draw only inside active windows, so the
  // delivery schedule is identical.
  const auto run = [](const FaultPlan& plan) {
    EventQueue queue;
    NetworkConfig config;
    config.enabled = true;
    NetworkModel net(&queue, config, &plan, 1, Rng(7));
    std::vector<int64_t> delivery_ms;
    for (int i = 0; i < 16; ++i) {
      net.Send(NetDirection::kUp, 0, NetPriority::kData,
               [&queue, &delivery_ms]() {
                 delivery_ms.push_back(queue.now().millis_since_origin());
               });
    }
    queue.Run();
    return delivery_ms;
  };
  const FaultPlan empty;
  FaultPlan inactive;
  inactive.loss_windows.push_back(
      {-1, TimePoint::Origin() + Duration::Hours(10), Duration::Minutes(1),
       0.9});
  EXPECT_EQ(run(empty), run(inactive));
}

// ---- Cluster integration --------------------------------------------------

TEST(NetworkClusterTest, NetworkOffIsByteIdenticalToBaseline) {
  const Trace trace = MakeTrace(20, Duration::Minutes(2), Duration::Seconds(1));
  const FixedKeepAliveFactory factory(Duration::Minutes(10));

  const ClusterConfig baseline_config;
  const ClusterResult baseline =
      ClusterSimulator(baseline_config).Replay(trace, factory);

  // A fully-populated but DISABLED network config must change nothing: no
  // RNG fork, no events, no metrics — bit-identical outputs.
  ClusterConfig config;
  config.network.uplink.latency_median_ms = 25.0;
  config.network.uplink.queue_capacity = 2;
  config.network.downlink.rate_msgs_per_sec = 10.0;
  config.network.rpc_timeout = Duration::Millis(100);
  config.network.max_retransmits = 9;
  ASSERT_FALSE(config.network.enabled);
  const ClusterResult off = ClusterSimulator(config).Replay(trace, factory);

  EXPECT_EQ(off.faults, baseline.faults);
  EXPECT_EQ(off.total_invocations, baseline.total_invocations);
  EXPECT_EQ(off.total_cold_starts, baseline.total_cold_starts);
  EXPECT_EQ(off.total_warm_starts, baseline.total_warm_starts);
  EXPECT_EQ(off.end_to_end_latency_ms, baseline.end_to_end_latency_ms);
  EXPECT_EQ(off.billed_execution_ms, baseline.billed_execution_ms);
  EXPECT_DOUBLE_EQ(off.memory_mb_seconds, baseline.memory_mb_seconds);
}

TEST(NetworkClusterTest, CleanNetworkCompletesEverything) {
  const Trace trace = MakeTrace(15, Duration::Minutes(1), Duration::Seconds(1));
  ClusterConfig config;
  config.num_invokers = 2;
  config.network.enabled = true;
  const ClusterResult result =
      ClusterSimulator(config).Replay(trace, FixedKeepAliveFactory(Duration::Minutes(10)));
  ASSERT_EQ(result.apps.size(), 1u);
  EXPECT_EQ(result.apps[0].Completed(), 15);
  EXPECT_EQ(result.total_lost, 0);
  EXPECT_GT(result.faults.net_messages_sent, 0);
  EXPECT_GT(result.faults.net_delivered, 0);
  // A fault-free network loses, duplicates, and retransmits nothing.
  EXPECT_EQ(result.faults.net_lost_to_loss, 0);
  EXPECT_EQ(result.faults.net_lost_to_partition, 0);
  EXPECT_EQ(result.faults.net_duplicates_delivered, 0);
  EXPECT_EQ(result.faults.rpc_retransmits, 0);
  EXPECT_EQ(result.faults.rpc_give_ups, 0);
}

TEST(NetworkClusterTest, DuplicateDeliveryIsIdempotent) {
  const Trace trace = MakeTrace(15, Duration::Minutes(1), Duration::Seconds(1));
  ClusterConfig config;
  config.num_invokers = 2;
  config.network.enabled = true;
  std::string error;
  // Every message is delivered twice for the whole replay: requests,
  // responses, completions, ACKs.  The sequence-numbered dedup windows must
  // keep every activation exactly-once.
  config.faults = *FaultPlan::Parse("netdup:at=0s,for=1h,p=1.0", &error);
  const ClusterResult result =
      ClusterSimulator(config).Replay(trace, FixedKeepAliveFactory(Duration::Minutes(10)));
  ASSERT_EQ(result.apps.size(), 1u);
  EXPECT_EQ(result.apps[0].Completed(), 15);
  EXPECT_EQ(result.total_lost, 0);
  EXPECT_EQ(result.total_dropped, 0);
  EXPECT_GT(result.faults.net_duplicates_delivered, 0);
  EXPECT_GT(result.faults.rpc_duplicates_suppressed, 0);
}

TEST(NetworkClusterTest, LossTriggersRetransmitsAndLedgerSplit) {
  const Trace trace = MakeTrace(20, Duration::Minutes(1), Duration::Seconds(1));
  ClusterConfig config;
  config.num_invokers = 2;
  config.network.enabled = true;
  config.retry.max_retries = 2;
  config.retry.activation_timeout = Duration::Seconds(30);
  std::string error;
  config.faults = *FaultPlan::Parse("netloss:at=0s,for=1h,p=0.3", &error);
  const ClusterResult result =
      ClusterSimulator(config).Replay(trace, FixedKeepAliveFactory(Duration::Minutes(10)));
  EXPECT_GT(result.faults.net_lost_to_loss, 0);
  EXPECT_GT(result.faults.rpc_retransmits, 0);
  // The terminal-loss split is exhaustive: crash-lost + network-lost.
  EXPECT_EQ(result.faults.lost,
            result.faults.lost_crash + result.faults.lost_network);
  EXPECT_EQ(result.faults.lost_crash, 0);  // No crash faults in this plan.
  ASSERT_EQ(result.apps.size(), 1u);
  EXPECT_GT(result.apps[0].Completed(), 0);  // Retransmits carried the day.
}

TEST(NetworkClusterTest, PartitionHealRecovery) {
  const Trace trace = MakeTrace(30, Duration::Minutes(1), Duration::Seconds(1));
  ClusterConfig config;
  config.num_invokers = 2;
  config.network.enabled = true;
  config.retry.max_retries = 5;
  config.retry.activation_timeout = Duration::Seconds(45);
  std::string error;
  // Every link dark for two minutes mid-replay, then healed.
  config.faults = *FaultPlan::Parse("partition:at=10m,for=2m", &error);
  const ClusterResult result =
      ClusterSimulator(config).Replay(trace, FixedKeepAliveFactory(Duration::Minutes(10)));
  EXPECT_GT(result.faults.net_lost_to_partition, 0);
  EXPECT_GT(result.faults.rpc_give_ups, 0);
  EXPECT_GT(result.faults.network_failures, 0);
  EXPECT_EQ(result.faults.lost,
            result.faults.lost_crash + result.faults.lost_network);
  ASSERT_EQ(result.apps.size(), 1u);
  // Invocations outside the window complete normally: the link healed.
  EXPECT_GE(result.apps[0].Completed(), 25);
}

TEST(NetworkClusterTest, PartitionGiveUpsFeedTheBreaker) {
  const Trace trace = MakeTrace(30, Duration::Seconds(20), Duration::Seconds(1));
  ClusterConfig config;
  config.num_invokers = 2;
  config.network.enabled = true;
  config.network.rpc_timeout = Duration::Millis(200);
  config.network.max_retransmits = 1;
  config.retry.max_retries = 3;
  config.retry.activation_timeout = Duration::Seconds(20);
  config.overload.breaker.enabled = true;
  config.overload.breaker.window = 4;
  config.overload.breaker.min_samples = 2;
  config.overload.breaker.failure_threshold = 0.5;
  config.overload.breaker.half_open_probes = 1;
  config.overload.breaker.open_duration = Duration::Seconds(30);
  std::string error;
  config.faults = *FaultPlan::Parse("partition:at=2m,for=3m", &error);
  const ClusterResult result =
      ClusterSimulator(config).Replay(trace, FixedKeepAliveFactory(Duration::Minutes(10)));
  // Spent retransmit budgets are bad outcomes for the link: the breaker
  // opens during the partition instead of hammering an unreachable invoker.
  EXPECT_GT(result.faults.rpc_give_ups, 0);
  EXPECT_GT(result.overload.breaker_opens, 0);
}

TEST(NetworkClusterTest, LedgerDeterministicAcrossThreadCounts) {
  // Acceptance scenario: 1% loss plus two partitions.  The full transport
  // ledger — every drop, retransmit, duplicate — must be bit-identical
  // whether replays run sequentially or on a thread pool.
  const Trace trace = MakeTrace(30, Duration::Minutes(1), Duration::Seconds(20));
  ClusterConfig config;
  config.num_invokers = 2;
  config.network.enabled = true;
  config.retry.max_retries = 3;
  config.retry.activation_timeout = Duration::Seconds(45);
  std::string error;
  config.faults = *FaultPlan::Parse(
      "netloss:at=0s,for=31m,p=0.01; partition:at=5m,for=90s,invoker=0; "
      "partition:at=12m,for=60s; netdup:at=15m,for=5m,p=0.2; "
      "netreorder:at=18m,for=5m,p=0.5,delay=100ms",
      &error);
  ASSERT_TRUE(error.empty()) << error;
  const ClusterSimulator simulator(config);

  const ClusterResult reference =
      simulator.Replay(trace, FixedKeepAliveFactory(Duration::Minutes(10)));
  // The transport actually engaged in this scenario.
  EXPECT_GT(reference.faults.net_messages_sent, 0);
  EXPECT_GT(reference.faults.net_lost_to_partition, 0);
  EXPECT_GT(reference.faults.rpc_retransmits, 0);
  EXPECT_GT(reference.faults.net_duplicates_delivered, 0);

  for (int num_threads : {1, 4}) {
    std::vector<ClusterResult> results(4);
    ParallelFor(
        results.size(),
        [&](size_t i) {
          results[i] = simulator.Replay(trace, FixedKeepAliveFactory(Duration::Minutes(10)));
        },
        num_threads);
    for (const ClusterResult& result : results) {
      EXPECT_EQ(result.faults, reference.faults);
      EXPECT_EQ(result.total_cold_starts, reference.total_cold_starts);
      EXPECT_EQ(result.total_lost, reference.total_lost);
      EXPECT_EQ(result.end_to_end_latency_ms,
                reference.end_to_end_latency_ms);
    }
  }
}

// ---- Conservation across the drain probe ----------------------------------

// A small generated day with three flash crowds, the perfbench
// cluster_overload shape scaled down.
Trace MakeCrowdTrace(uint64_t seed) {
  GeneratorConfig generator;
  generator.num_apps = 40;
  generator.days = 1;
  generator.instants_rate_cap_per_day = 1500.0;
  generator.seed = seed;
  Trace trace = WorkloadGenerator(generator).Generate();
  FlashCrowdSpec crowd;
  crowd.count = 3;
  crowd.duration = Duration::Minutes(10);
  crowd.fraction = 0.5;
  crowd.events_per_function = 30.0;
  Rng rng(seed * 7919 + 13);
  ApplyFlashCrowd(trace, crowd, rng);
  return trace;
}

// 1 ms links and a concurrency cap small enough that the crowds queue.
ClusterConfig CrowdClusterConfig(uint64_t seed,
                                 AdmissionDiscipline discipline) {
  ClusterConfig config;
  config.num_invokers = 3;
  config.seed = seed;
  config.network.enabled = true;
  config.network.uplink.latency_median_ms = 1.0;
  config.network.downlink.latency_median_ms = 1.0;
  config.overload.admission.capacity = 1024;
  config.overload.admission.discipline = discipline;
  config.overload.admission.max_wait = Duration::Seconds(2);
  config.overload.invoker_concurrency_cap = 4;
  return config;
}

int64_t AppColdStarts(const ClusterResult& result) {
  int64_t cold = 0;
  for (const ClusterAppResult& app : result.apps) {
    cold += app.cold_starts;
  }
  return cold;
}

// An activation that entered a FIFO/CoDel queue leaves it drained or shed
// by age or shutdown; queue-full sheds are arrivals that never queued.
void ExpectQueueConserved(const OverloadLedger& o) {
  EXPECT_EQ(o.queued, o.drained + o.shed_deadline + o.shed_at_shutdown);
}

TEST(NetworkConservationTest, EveryActivationEndsExactlyOnce) {
  // No faults, hedges, retries or timeouts: each activation executes once
  // or ends terminally once, so the invokers' executions plus the
  // controller's terminal outcomes count the trace exactly.
  const FixedKeepAliveFactory factory(Duration::Minutes(10));
  int64_t queued = 0;
  int64_t shed_deadline = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const Trace trace = MakeCrowdTrace(seed);
    for (const AdmissionDiscipline discipline :
         {AdmissionDiscipline::kFifo, AdmissionDiscipline::kCoDel}) {
      SCOPED_TRACE(testing::Message()
                   << "seed " << seed << " discipline "
                   << static_cast<int>(discipline));
      const ClusterResult r =
          ClusterSimulator(CrowdClusterConfig(seed, discipline))
              .Replay(trace, factory);
      EXPECT_EQ(r.total_invocations, trace.TotalInvocations());
      EXPECT_EQ(r.total_cold_starts + r.total_warm_starts + r.total_dropped +
                    r.total_rejected_outage + r.total_abandoned +
                    r.total_lost,
                r.total_invocations);
      EXPECT_EQ(AppColdStarts(r), r.total_cold_starts);
      ExpectQueueConserved(r.overload);
      EXPECT_EQ(r.pending_activations, 0);
      queued += r.overload.queued;
      shed_deadline += r.overload.shed_deadline;
    }
  }
  // The crowds did push work through the queue and past the CoDel bound.
  EXPECT_GT(queued, 0);
  EXPECT_GT(shed_deadline, 0);
}

TEST(NetworkConservationTest, LedgersHoldUnderFaultsHedgesAndRetries) {
  // Loss, duplication, reordering, short partitions and crashes, with
  // hedging and retries but no activation timeout.  Hedge losers and
  // re-dispatched attempts may execute as zombies, so invoker cold starts
  // only bound the controller's; every activation must still end, and the
  // queue and transport ledgers must balance.
  const FixedKeepAliveFactory factory(Duration::Minutes(10));
  std::string error;
  const auto faults = FaultPlan::Parse(
      "netloss:at=1h,for=20h,p=0.02; netdup:at=2h,for=20h,p=0.05; "
      "netreorder:at=3h,for=20h,p=0.2,delay=20ms; "
      "partition:at=5h,for=1s,invoker=0; partition:at=9h,for=1500ms; "
      "partition:at=14h,for=800ms,invoker=2,dir=down",
      &error);
  ASSERT_TRUE(faults.has_value()) << error;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const Trace trace = MakeCrowdTrace(seed);
    ClusterConfig config = CrowdClusterConfig(seed, AdmissionDiscipline::kCoDel);
    config.faults = *faults;
    config.faults.crashes.push_back(
        {static_cast<int>(seed % 3), TimePoint::Origin() + Duration::Hours(7),
         Duration::Minutes(2)});
    config.faults.crashes.push_back(
        {static_cast<int>((seed + 1) % 3),
         TimePoint::Origin() + Duration::Hours(12), Duration::Minutes(5)});
    config.retry.max_retries = 2;
    config.overload.hedge.after = Duration::Millis(300);
    const ClusterResult r = ClusterSimulator(config).Replay(trace, factory);
    EXPECT_EQ(r.pending_activations, 0);
    // The controller books exactly one outcome per activation.
    EXPECT_EQ(static_cast<int64_t>(r.billed_execution_ms.size()) +
                  r.total_dropped + r.total_rejected_outage +
                  r.total_abandoned + r.total_lost,
              r.total_invocations);
    ExpectQueueConserved(r.overload);
    const FaultLedger& f = r.faults;
    EXPECT_EQ(f.net_messages_sent + f.net_duplicates_delivered,
              f.net_delivered + f.net_lost_to_loss + f.net_lost_to_partition +
                  f.net_lost_to_queue);
    EXPECT_LE(AppColdStarts(r), r.total_cold_starts);
    EXPECT_GT(r.overload.hedges_launched, 0);
    EXPECT_GT(r.faults.net_lost_to_loss, 0);
  }
}

// One invoker with room for one execution, constant 1 ms links and 2 ms
// cold starts: activation 1 runs [1, 1003) ms; activation 2 arrives at
// 10 ms, is declined, and parks at 12 ms.  The release at 1003 ms sends
// the drain probe, which the invoker accepts at 1004 ms.
ClusterConfig PinpointConfig() {
  ClusterConfig config;
  config.num_invokers = 1;
  config.latency.container_init_median_ms = 1.0;
  config.latency.container_init_sigma = 0.0;
  config.latency.runtime_bootstrap_median_ms = 1.0;
  config.latency.runtime_bootstrap_sigma = 0.0;
  config.network.enabled = true;
  config.network.uplink.latency_median_ms = 1.0;
  config.network.uplink.latency_sigma = 0.0;
  config.network.downlink.latency_median_ms = 1.0;
  config.network.downlink.latency_sigma = 0.0;
  config.overload.admission.capacity = 8;
  config.overload.invoker_concurrency_cap = 1;
  return config;
}

TEST(NetworkConservationTest, CompletionOvertakingDrainResponseBooksDrain) {
  // The drain probe's response is lost at 1004 ms and only a retransmit
  // 2 s later answers it, so activation 2's completion (1 s after the
  // accept) reaches the controller while it is still marked queued.
  const Trace trace = MakeTrace(2, Duration::Millis(10), Duration::Seconds(1));
  ClusterConfig config = PinpointConfig();
  config.network.rpc_timeout = Duration::Seconds(2);
  std::string error;
  config.faults =
      *FaultPlan::Parse("partition:at=1004ms,for=1ms,dir=down", &error);
  ASSERT_TRUE(error.empty()) << error;
  const ClusterResult r = ClusterSimulator(config).Replay(
      trace, FixedKeepAliveFactory(Duration::Minutes(10)));
  EXPECT_EQ(r.faults.net_lost_to_partition, 1);
  EXPECT_EQ(r.overload.queued, 1);
  EXPECT_EQ(r.overload.drained, 1);
  EXPECT_EQ(r.total_cold_starts + r.total_warm_starts, 2);
  EXPECT_EQ(AppColdStarts(r), r.total_cold_starts);
  EXPECT_EQ(r.total_dropped, 0);
  EXPECT_EQ(r.pending_activations, 0);
}

TEST(NetworkConservationTest, DeadlineDuringDrainProbeWaitsForItsOutcome) {
  // Activation 2's CoDel bound (parked at 12 ms + 992 ms) expires at
  // 1004 ms, while its drain probe is in flight.  The invoker accepts the
  // probe, so the activation was drained, not shed.
  const Trace trace = MakeTrace(2, Duration::Millis(10), Duration::Seconds(1));
  ClusterConfig config = PinpointConfig();
  config.overload.admission.discipline = AdmissionDiscipline::kCoDel;
  config.overload.admission.max_wait = Duration::Millis(992);
  const ClusterResult r = ClusterSimulator(config).Replay(
      trace, FixedKeepAliveFactory(Duration::Minutes(10)));
  EXPECT_EQ(r.overload.queued, 1);
  EXPECT_EQ(r.overload.drained, 1);
  EXPECT_EQ(r.overload.shed_deadline, 0);
  EXPECT_EQ(r.total_dropped, 0);
  EXPECT_EQ(r.total_cold_starts, 1);
  EXPECT_EQ(r.total_warm_starts, 1);
  ASSERT_EQ(r.apps.size(), 1u);
  EXPECT_EQ(r.apps[0].Completed(), 2);
}

// A shed that came due during the probe still lands when the probe does
// not place the activation.
TEST(NetworkConservationTest, DeadlineDuringDeclinedDrainProbeSheds) {
  // Activation 3 takes the slot activation 1 freed, so activation 2's
  // drain probe at 1003 ms is declined after its CoDel bound expired.
  Trace trace = MakeTrace(2, Duration::Millis(10), Duration::Seconds(1));
  trace.apps[0].functions[0].invocations.push_back(TimePoint(1002));
  trace.apps[0].functions[0].execution.count = 3;
  ClusterConfig config = PinpointConfig();
  config.overload.admission.discipline = AdmissionDiscipline::kCoDel;
  config.overload.admission.max_wait = Duration::Millis(992);
  const ClusterResult r = ClusterSimulator(config).Replay(
      trace, FixedKeepAliveFactory(Duration::Minutes(10)));
  ExpectQueueConserved(r.overload);
  EXPECT_EQ(r.overload.shed_deadline, 1);
  EXPECT_EQ(r.total_dropped, 1);
  EXPECT_EQ(r.total_cold_starts + r.total_warm_starts + r.total_dropped, 3);
}

}  // namespace
}  // namespace faas
