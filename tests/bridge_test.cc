// AdmissionBridge driven on a scripted clock: the TimerWheel hands every
// callback the instant passed to Advance, so the breaker, hedge and
// watchdog paths run deterministically without sockets or a real clock.

#include "src/serve/bridge.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace faas {
namespace {

constexpr int64_t kMs = 1'000'000;

struct Reply {
  uint64_t request_id;
  ReplyStatus status;
  int64_t at_ns;
};

// One bridge on a 100 us wheel, advanced in 100 us steps from t = 0.
class Harness {
 public:
  explicit Harness(const AdmissionBridgeConfig& config)
      : wheel_(/*tick_ns=*/100'000, /*num_slots=*/256),
        bridge_(config, &wheel_, &Harness::OnReply, this) {
    bridge_.StartClock(0);
  }

  void Request(uint64_t request_id, uint32_t function_id) {
    RequestFrame frame;
    frame.request_id = request_id;
    frame.function_id = function_id;
    bridge_.OnRequest(/*conn_token=*/1, frame, now_ns_);
  }

  // Advances to `until_ns`; `watch` runs after every step.
  template <class Watch>
  void RunTo(int64_t until_ns, Watch watch) {
    while (now_ns_ < until_ns) {
      now_ns_ += 100'000;
      wheel_.Advance(now_ns_);
      watch(now_ns_);
    }
  }
  void RunTo(int64_t until_ns) {
    RunTo(until_ns, [](int64_t) {});
  }

  int64_t now_ns() const { return now_ns_; }
  AdmissionBridge& bridge() { return bridge_; }
  const std::vector<Reply>& replies() const { return replies_; }

 private:
  static void OnReply(void* ctx, uint64_t /*conn_token*/,
                      const ReplyFrame& reply) {
    auto* self = static_cast<Harness*>(ctx);
    self->replies_.push_back({reply.request_id, reply.status, self->now_ns_});
  }

  TimerWheel wheel_;
  AdmissionBridge bridge_;
  std::vector<Reply> replies_;
  int64_t now_ns_ = 0;
};

AdmissionBridgeConfig OneExecutorWithBreaker() {
  AdmissionBridgeConfig config;
  config.num_executors = 1;
  config.service_time_us = 5'000;
  CircuitBreakerConfig& breaker = config.overload.breaker;
  breaker.enabled = true;
  breaker.window = 2;
  breaker.min_samples = 2;
  breaker.failure_threshold = 0.5;
  breaker.half_open_probes = 1;
  return config;
}

TEST(AdmissionBridgeTest, WatchdogRestartBooksTheOpenIntervalOnce) {
  AdmissionBridgeConfig config = OneExecutorWithBreaker();
  // Every 5 ms execution is "slow": two completions open the breaker.
  config.overload.breaker.latency_threshold_ms = 1.0;
  config.overload.breaker.open_duration = Duration::Seconds(10);
  config.chaos.stalls.push_back({/*executor=*/0, Duration::Millis(7),
                                 Duration::Seconds(5)});
  config.watchdog.enabled = true;
  config.watchdog.interval = Duration::Millis(10);
  config.watchdog.stall_threshold = Duration::Millis(20);
  Harness h(config);

  h.Request(1, 0);
  h.Request(2, 0);
  h.RunTo(4 * kMs);
  h.Request(3, 0);  // Completes into the stall: frozen until the watchdog.
  int64_t opened_at = -1;
  int64_t restarted_at = -1;
  h.RunTo(100 * kMs, [&](int64_t now) {
    if (opened_at < 0 && h.bridge().ledger().breaker_opens == 1) {
      opened_at = now;
    }
    if (restarted_at < 0 && h.bridge().recovery().watchdog_restarts == 1) {
      restarted_at = now;
      // Booked at the restart itself, not left running until Drain.
      EXPECT_EQ(h.bridge().ledger().breaker_open_intervals, 1);
    }
  });
  ASSERT_GT(opened_at, 0);
  ASSERT_GT(restarted_at, opened_at);
  const double open_ms = static_cast<double>(restarted_at - opened_at) / 1e6;
  const OverloadLedger& ledger = h.bridge().ledger();
  EXPECT_EQ(ledger.breaker_opens, 1);
  EXPECT_EQ(ledger.breaker_closes, 0);
  EXPECT_EQ(ledger.breaker_open_intervals, 1);
  EXPECT_DOUBLE_EQ(ledger.total_breaker_open_ms, open_ms);
  EXPECT_DOUBLE_EQ(ledger.max_breaker_open_ms, open_ms);

  // The reset breaker has nothing left to book at shutdown.
  const OverloadLedger before_drain = ledger;
  h.bridge().Drain(h.now_ns());
  EXPECT_EQ(h.bridge().ledger(), before_drain);
  EXPECT_EQ(h.bridge().recovery().inflight_failed, 1);  // Request 3.
}

TEST(AdmissionBridgeTest, StragglerCompletingInHalfOpenCountsTowardClosing) {
  AdmissionBridgeConfig config = OneExecutorWithBreaker();
  config.overload.breaker.latency_threshold_ms = 20.0;
  config.overload.breaker.open_duration = Duration::Millis(2);
  // Requests admitted in the first millisecond run 10x slow (50 ms).
  config.chaos.spikes.push_back(
      {Duration::Zero(), Duration::Millis(1), /*multiplier=*/10.0});
  Harness h(config);

  h.Request(1, 0);
  h.Request(2, 0);
  h.RunTo(49 * kMs);
  // Dispatched while closed, before the trip; completes good (5 ms) after
  // the breaker has gone open -> half-open.
  h.Request(3, 0);
  int64_t opened_at = -1;
  int64_t closed_at = -1;
  h.RunTo(80 * kMs, [&](int64_t now) {
    const OverloadLedger& ledger = h.bridge().ledger();
    if (opened_at < 0 && ledger.breaker_opens == 1) {
      opened_at = now;
    }
    if (closed_at < 0 && ledger.breaker_closes == 1) {
      closed_at = now;
      EXPECT_EQ(ledger.breaker_half_opens, 1);
    }
  });
  const OverloadLedger& ledger = h.bridge().ledger();
  EXPECT_EQ(ledger.breaker_opens, 1);
  EXPECT_EQ(ledger.breaker_half_opens, 1);
  ASSERT_EQ(ledger.breaker_closes, 1);
  ASSERT_GT(closed_at, opened_at);
  EXPECT_EQ(ledger.breaker_open_intervals, 1);
  EXPECT_DOUBLE_EQ(ledger.total_breaker_open_ms,
                   static_cast<double>(closed_at - opened_at) / 1e6);
  ASSERT_EQ(h.replies().size(), 3u);
  for (const Reply& reply : h.replies()) {
    EXPECT_EQ(reply.status, ReplyStatus::kOk);
  }
}

TEST(AdmissionBridgeTest, QueueWaitDoesNotTripTheLatencyBreaker) {
  // One slot: request 2 waits 5 ms in the admission queue behind request
  // 1, then executes in 5 ms.  Its 10 ms end-to-end latency exceeds the
  // 8 ms threshold, but its execution does not, so both outcomes are good.
  AdmissionBridgeConfig config = OneExecutorWithBreaker();
  config.overload.breaker.latency_threshold_ms = 8.0;
  config.overload.invoker_concurrency_cap = 1;
  config.overload.admission.capacity = 4;
  Harness h(config);

  h.Request(1, 0);
  h.Request(2, 0);
  h.RunTo(20 * kMs);
  ASSERT_EQ(h.replies().size(), 2u);
  EXPECT_EQ(h.replies()[1].request_id, 2u);
  EXPECT_GT(h.replies()[1].at_ns, 8 * kMs);
  EXPECT_EQ(h.bridge().ledger().breaker_opens, 0);
}

AdmissionBridgeConfig TwoExecutorsHedging() {
  AdmissionBridgeConfig config;
  config.num_executors = 2;
  config.overload.hedge.after = Duration::Millis(10);
  return config;
}

TEST(AdmissionBridgeTest, HedgeWinsAndTheZombieReturnsItsSlot) {
  AdmissionBridgeConfig config = TwoExecutorsHedging();
  config.service_time_us = 5'000;
  // The primary is admitted inside the spike (50 ms); the hedge, launched
  // at 10 ms on the other executor, runs 5 ms and wins.
  config.chaos.spikes.push_back(
      {Duration::Zero(), Duration::Millis(1), /*multiplier=*/10.0});
  Harness h(config);

  h.Request(7, 0);
  h.RunTo(30 * kMs);
  const OverloadLedger& ledger = h.bridge().ledger();
  EXPECT_EQ(ledger.hedges_launched, 1);
  EXPECT_EQ(ledger.hedge_wins, 1);
  EXPECT_EQ(ledger.hedge_primary_wins, 0);
  ASSERT_EQ(h.replies().size(), 1u);
  EXPECT_EQ(h.replies()[0].request_id, 7u);
  EXPECT_EQ(h.replies()[0].status, ReplyStatus::kOk);
  EXPECT_LT(h.replies()[0].at_ns, 20 * kMs);
  // The losing primary still holds its slot until it completes.
  EXPECT_EQ(h.bridge().inflight(), 1);
  EXPECT_EQ(h.bridge().stats().hedge_zombies, 0);

  h.RunTo(60 * kMs);
  EXPECT_EQ(h.bridge().inflight(), 0);
  EXPECT_EQ(h.bridge().stats().hedge_zombies, 1);
  EXPECT_EQ(h.bridge().stats().served(), 1);
  EXPECT_EQ(h.replies().size(), 1u);
}

TEST(AdmissionBridgeTest, PrimaryWinsAndTheHedgeBecomesTheZombie) {
  AdmissionBridgeConfig config = TwoExecutorsHedging();
  config.service_time_us = 15'000;
  Harness h(config);

  h.Request(7, 0);
  h.RunTo(20 * kMs);
  const OverloadLedger& ledger = h.bridge().ledger();
  EXPECT_EQ(ledger.hedges_launched, 1);
  EXPECT_EQ(ledger.hedge_wins, 0);
  EXPECT_EQ(ledger.hedge_primary_wins, 1);
  ASSERT_EQ(h.replies().size(), 1u);
  EXPECT_EQ(h.bridge().inflight(), 1);  // The hedge, now a zombie.

  h.RunTo(40 * kMs);
  EXPECT_EQ(h.bridge().inflight(), 0);
  EXPECT_EQ(h.bridge().stats().hedge_zombies, 1);
  EXPECT_EQ(h.replies().size(), 1u);
}

TEST(AdmissionBridgeTest, HedgeIsUnplacedWhenOnlyThePrimarysExecutorIsUp) {
  AdmissionBridgeConfig config = TwoExecutorsHedging();
  config.service_time_us = 30'000;
  config.chaos.crashes.push_back(
      {/*executor=*/1, Duration::Zero(), Duration::Seconds(10)});
  Harness h(config);

  h.RunTo(1 * kMs);  // Executor 1 is down; executor 0 is the free one.
  h.Request(3, 0);
  h.RunTo(20 * kMs);
  const OverloadLedger& ledger = h.bridge().ledger();
  EXPECT_EQ(ledger.hedges_launched, 0);
  EXPECT_EQ(ledger.hedges_unplaced, 1);

  h.RunTo(40 * kMs);
  ASSERT_EQ(h.replies().size(), 1u);
  EXPECT_EQ(h.replies()[0].status, ReplyStatus::kOk);
  EXPECT_EQ(h.bridge().stats().hedge_zombies, 0);
  EXPECT_EQ(h.bridge().inflight(), 0);
}

}  // namespace
}  // namespace faas
