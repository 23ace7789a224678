// The overload plane's shared mechanisms as plain values, without a
// substrate: CircuitBreaker replayed from one outcome script on the
// simulator's clock (milliseconds scaled to ns) and on a wall clock (ns
// from an arbitrary monotonic epoch), HedgeTrigger's delay rule at both
// clock resolutions, AdmissionQueue's discipline, and config validation.

#include "src/cluster/overload.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace faas {
namespace {

// ---- CircuitBreaker --------------------------------------------------------

enum class Act {
  kGood,      // RecordOutcome(bad = false)
  kBad,       // RecordOutcome(bad = true)
  kSlow,      // RecordCompletion above the latency threshold
  kFast,      // RecordCompletion below it
  kDispatch,  // NoteDispatch
  kTimer,     // HalfOpen(epoch of open number `arg`, 0-based)
  kReset,
  kShutdown,
};

struct Step {
  int64_t at_ms;
  Act act;
  int arg;  // kTimer: which open's epoch; otherwise unused.
  BreakerState state;  // Expected state after the step.
  bool admits;         // Expected Admits() after the step.
};

CircuitBreakerConfig ScriptConfig() {
  CircuitBreakerConfig config;
  config.enabled = true;
  config.window = 4;
  config.min_samples = 4;
  config.failure_threshold = 0.5;
  config.latency_threshold_ms = 250.0;
  config.open_duration = Duration::Millis(100);
  config.half_open_probes = 2;
  return config;
}

constexpr BreakerState kClosed = BreakerState::kClosed;
constexpr BreakerState kOpen = BreakerState::kOpen;
constexpr BreakerState kHalfOpen = BreakerState::kHalfOpen;

// clang-format off
const Step kScript[] = {
    // Closed: the window fills (1 bad of 4 stays under the threshold) ...
    {0, Act::kGood, 0, kClosed, true},
    {1, Act::kFast, 0, kClosed, true},
    {2, Act::kBad, 0, kClosed, true},
    {3, Act::kGood, 0, kClosed, true},
    // ... and refills: evicting the oldest good outcome trips it (2 of 4).
    {4, Act::kSlow, 0, kOpen, false},
    // Open ignores outcomes.
    {50, Act::kBad, 0, kOpen, false},
    {104, Act::kTimer, 0, kHalfOpen, true},
    // Half-open admits two concurrent probes, then refuses.
    {105, Act::kDispatch, 0, kHalfOpen, true},
    {106, Act::kDispatch, 0, kHalfOpen, false},
    {110, Act::kGood, 0, kHalfOpen, true},
    // A bad probe re-opens; the degraded interval keeps running from 4.
    {120, Act::kBad, 0, kOpen, false},
    // The first open's timer is stale now.
    {220, Act::kTimer, 0, kOpen, false},
    {220, Act::kTimer, 1, kHalfOpen, true},
    // Any half-open outcome is a probe result, a straggler dispatched
    // before the trip included, and the probe count never goes below 0.
    {230, Act::kGood, 0, kHalfOpen, true},
    {240, Act::kFast, 0, kClosed, true},
    // Closed again on a fresh window: four bad outcomes trip it.
    {241, Act::kBad, 0, kClosed, true},
    {242, Act::kBad, 0, kClosed, true},
    {243, Act::kBad, 0, kClosed, true},
    {244, Act::kBad, 0, kOpen, false},
    // Reset books the interval (not as a close) and stales the timer.
    {300, Act::kReset, 0, kClosed, true},
    {344, Act::kTimer, 2, kClosed, true},
    {401, Act::kBad, 0, kClosed, true},
    {402, Act::kBad, 0, kClosed, true},
    {403, Act::kBad, 0, kClosed, true},
    {404, Act::kBad, 0, kOpen, false},
    // Shutdown books the interval still open, once.
    {500, Act::kShutdown, 0, kOpen, false},
    {600, Act::kShutdown, 0, kOpen, false},
};
// clang-format on

struct Replay {
  OverloadLedger ledger;
  std::vector<BreakerStep::Change> changes;  // One per step.
  std::vector<int64_t> half_open_delays_ns;  // Per open: deadline - now.
};

Replay RunScript(int64_t epoch_ns) {
  const auto now_ns = [epoch_ns](int64_t ms) {
    return epoch_ns + ms * 1'000'000;
  };
  CircuitBreaker breaker(ScriptConfig());
  Replay replay;
  std::vector<uint32_t> open_epochs;
  for (const Step& step : kScript) {
    const int64_t now = now_ns(step.at_ms);
    BreakerStep result;
    switch (step.act) {
      case Act::kGood:
      case Act::kBad:
        result = breaker.RecordOutcome(step.act == Act::kBad, now,
                                       replay.ledger);
        break;
      case Act::kSlow:
      case Act::kFast:
        result = breaker.RecordCompletion(step.act == Act::kSlow ? 251.0 : 5.0,
                                          now, replay.ledger);
        break;
      case Act::kDispatch:
        breaker.NoteDispatch();
        break;
      case Act::kTimer:
        breaker.HalfOpen(open_epochs.at(static_cast<size_t>(step.arg)),
                         replay.ledger);
        break;
      case Act::kReset:
        EXPECT_TRUE(breaker.Reset(now, replay.ledger)) << "was open";
        break;
      case Act::kShutdown:
        breaker.Shutdown(now, replay.ledger);
        break;
    }
    if (result.change == BreakerStep::Change::kOpened) {
      open_epochs.push_back(result.epoch);
      replay.half_open_delays_ns.push_back(result.half_open_at_ns - now);
    }
    replay.changes.push_back(result.change);
    EXPECT_EQ(breaker.state(), step.state) << "at " << step.at_ms << " ms";
    EXPECT_EQ(breaker.Admits(), step.admits) << "at " << step.at_ms << " ms";
  }
  return replay;
}

TEST(CircuitBreakerUnitTest, ScriptReplaysIdenticallyOnBothClocks) {
  const Replay sim = RunScript(/*epoch_ns=*/0);
  const Replay wall = RunScript(/*epoch_ns=*/987'654'321'123);
  EXPECT_EQ(sim.changes, wall.changes);
  EXPECT_EQ(sim.ledger, wall.ledger);
  EXPECT_EQ(sim.half_open_delays_ns, wall.half_open_delays_ns);
  EXPECT_EQ(sim.half_open_delays_ns,
            (std::vector<int64_t>(4, 100'000'000)));

  const OverloadLedger& ledger = sim.ledger;
  EXPECT_EQ(ledger.breaker_opens, 4);
  EXPECT_EQ(ledger.breaker_half_opens, 2);
  EXPECT_EQ(ledger.breaker_closes, 1);
  // Intervals: 4 -> 240 (close), 244 -> 300 (reset), 404 -> 500 (shutdown).
  EXPECT_EQ(ledger.breaker_open_intervals, 3);
  // The ledger's milliseconds are the controller's Duration arithmetic,
  // bit for bit.
  const auto ms = [](int64_t span) {
    return Duration::Millis(span).seconds() * 1e3;
  };
  EXPECT_EQ(ledger.total_breaker_open_ms, ms(236) + ms(56) + ms(96));
  EXPECT_EQ(ledger.max_breaker_open_ms, ms(236));
  // Rejections and queue fields belong to the callers.
  EXPECT_EQ(ledger.breaker_rejections, 0);
  EXPECT_EQ(ledger.queued, 0);
}

TEST(CircuitBreakerUnitTest, ResetOfAClosedBreakerBooksNothing) {
  CircuitBreaker breaker(ScriptConfig());
  OverloadLedger ledger;
  EXPECT_FALSE(breaker.Reset(1'000'000, ledger));
  EXPECT_EQ(ledger, OverloadLedger{});
}

// ---- HedgeTrigger ----------------------------------------------------------

TEST(HedgeTriggerTest, FixedDelayAndFloor) {
  HedgeConfig config;
  config.after = Duration::Millis(750);
  EXPECT_EQ(HedgeTrigger(config, 1'000'000).DelayNs(), 750'000'000);
  EXPECT_EQ(HedgeTrigger(config, 1).DelayNs(), 750'000'000);
  config.after = Duration::Zero();
  config.latency_percentile = 99.0;
  config.min_after = Duration::Millis(40);
  // Fewer than 32 samples: the floor applies.
  HedgeTrigger trigger(config, 1);
  for (int i = 0; i < 31; ++i) {
    trigger.Observe(500.0);
  }
  EXPECT_EQ(trigger.DelayNs(), 40'000'000);
}

TEST(HedgeTriggerTest, PercentileTruncatesToTheClockTick) {
  HedgeConfig config;
  config.latency_percentile = 90.0;
  config.min_after = Duration::Millis(100);
  HedgeTrigger sim(config, /*tick_ns=*/1'000'000);
  HedgeTrigger wall(config, /*tick_ns=*/1);
  for (int i = 0; i < 64; ++i) {
    sim.Observe(250.75);
    wall.Observe(250.75);
  }
  EXPECT_EQ(sim.DelayNs(), 250'000'000);   // Whole milliseconds.
  EXPECT_EQ(wall.DelayNs(), 250'750'000);  // Whole nanoseconds.
  // The floor still holds under the percentile.
  HedgeTrigger fast(config, 1'000'000);
  for (int i = 0; i < 64; ++i) {
    fast.Observe(3.0);
  }
  EXPECT_EQ(fast.DelayNs(), 100'000'000);
}

// ---- AdmissionQueue --------------------------------------------------------

AdmissionQueueConfig QueueConfig(AdmissionDiscipline discipline) {
  AdmissionQueueConfig config;
  config.capacity = 2;
  config.discipline = discipline;
  return config;
}

TEST(AdmissionQueueUnitTest, FifoAndCoDelTailDropAndServeOldest) {
  for (const AdmissionDiscipline discipline :
       {AdmissionDiscipline::kFifo, AdmissionDiscipline::kCoDel}) {
    AdmissionQueue<int> queue(QueueConfig(discipline));
    queue.Push(1);
    EXPECT_FALSE(queue.full());
    queue.Push(2);
    EXPECT_TRUE(queue.full());
    EXPECT_EQ(queue.ShedForArrival(), std::nullopt);
    EXPECT_EQ(queue.size(), 2u);
    EXPECT_EQ(queue.Next(), 1);
    queue.PopNext();
    EXPECT_EQ(queue.Next(), 2);
  }
}

TEST(AdmissionQueueUnitTest, LifoShedsOldestAndServesNewest) {
  AdmissionQueue<int> queue(QueueConfig(AdmissionDiscipline::kLifo));
  queue.Push(1);
  queue.Push(2);
  ASSERT_TRUE(queue.full());
  EXPECT_EQ(queue.ShedForArrival(), std::optional<int>(1));
  queue.Push(3);
  EXPECT_EQ(queue.Next(), 3);
  queue.PopNext();
  EXPECT_EQ(queue.Next(), 2);
}

TEST(AdmissionQueueUnitTest, EraseIfKeepsOrder) {
  AdmissionQueueConfig config = QueueConfig(AdmissionDiscipline::kFifo);
  config.capacity = 8;
  AdmissionQueue<int> queue(config);
  for (int i = 1; i <= 6; ++i) {
    queue.Push(i);
  }
  queue.EraseIf([](int v) { return v % 2 == 0; });
  EXPECT_EQ(std::vector<int>(queue.begin(), queue.end()),
            (std::vector<int>{1, 3, 5}));
  queue.clear();
  EXPECT_TRUE(queue.empty());
}

// ---- Validate --------------------------------------------------------------

TEST(OverloadConfigTest, ValidateAcceptsDefaultsAndRejectsUnusableKnobs) {
  EXPECT_EQ(OverloadControlConfig{}.Validate(), "");
  OverloadControlConfig on;
  on.breaker.enabled = true;
  on.admission.capacity = 16;
  on.hedge.latency_percentile = 99.0;
  EXPECT_EQ(on.Validate(), "");

  const struct {
    const char* name;
    void (*mutate)(OverloadControlConfig*);
  } bad[] = {
      {"negative capacity",
       [](OverloadControlConfig* c) { c->admission.capacity = -1; }},
      {"negative cap",
       [](OverloadControlConfig* c) { c->invoker_concurrency_cap = -1; }},
      {"percentile 100",
       [](OverloadControlConfig* c) { c->hedge.latency_percentile = 100.0; }},
      {"negative percentile",
       [](OverloadControlConfig* c) { c->hedge.latency_percentile = -1.0; }},
      {"window 0",
       [](OverloadControlConfig* c) {
         c->breaker.enabled = true;
         c->breaker.window = 0;
       }},
      {"threshold 1.5",
       [](OverloadControlConfig* c) {
         c->breaker.enabled = true;
         c->breaker.failure_threshold = 1.5;
       }},
      {"min samples above the window",
       [](OverloadControlConfig* c) {
         c->breaker.enabled = true;
         c->breaker.window = 5;  // min_samples stays 10.
       }},
      {"zero probes",
       [](OverloadControlConfig* c) {
         c->breaker.enabled = true;
         c->breaker.half_open_probes = 0;
       }},
  };
  for (const auto& c : bad) {
    OverloadControlConfig config;
    c.mutate(&config);
    EXPECT_NE(config.Validate(), "") << c.name;
  }
  // Breaker knobs are only checked when the breaker is on.
  OverloadControlConfig off;
  off.breaker.window = 0;
  EXPECT_EQ(off.Validate(), "");
}

}  // namespace
}  // namespace faas
