#include "src/cluster/overload.h"

#include <algorithm>

#include "src/common/logging.h"

namespace faas {
namespace {

// Milliseconds for the ledger as Duration::seconds() * 1e3 computes them:
// for a span that is a whole number of milliseconds (the simulator's clock)
// this is bit-identical to the controller's original arithmetic.
double LedgerMs(int64_t span_ns) {
  return static_cast<double>(span_ns) / 1e9 * 1e3;
}

int64_t Ns(Duration d) { return d.millis() * 1'000'000; }

}  // namespace

std::optional<AdmissionDiscipline> ParseAdmissionDiscipline(
    std::string_view name) {
  if (name == "fifo") {
    return AdmissionDiscipline::kFifo;
  }
  if (name == "lifo") {
    return AdmissionDiscipline::kLifo;
  }
  if (name == "codel") {
    return AdmissionDiscipline::kCoDel;
  }
  return std::nullopt;
}

const char* AdmissionDisciplineName(AdmissionDiscipline discipline) {
  switch (discipline) {
    case AdmissionDiscipline::kFifo:
      return "fifo";
    case AdmissionDiscipline::kLifo:
      return "lifo";
    case AdmissionDiscipline::kCoDel:
      return "codel";
  }
  return "unknown";
}

std::string OverloadControlConfig::Validate() const {
  const bool on = breaker.enabled;
  const struct {
    bool bad;
    const char* what;
  } checks[] = {
      {admission.capacity < 0, "admission queue capacity must be >= 0"},
      {admission.max_wait.IsNegative(), "queue max wait must be >= 0"},
      {invoker_concurrency_cap < 0, "concurrency cap must be >= 0"},
      {!(hedge.latency_percentile >= 0.0 && hedge.latency_percentile < 100.0),
       "hedge percentile must be in [0, 100)"},
      {hedge.after.IsNegative() || hedge.min_after.IsNegative(),
       "hedge delays must be >= 0"},
      {on && (breaker.window <= 0 || breaker.min_samples <= 0 ||
              breaker.half_open_probes <= 0),
       "breaker window, min samples and half-open probes must be > 0"},
      {on && breaker.min_samples > breaker.window,
       "breaker min samples exceed its window, so it could never open"},
      {on && !(breaker.failure_threshold > 0.0 &&
               breaker.failure_threshold <= 1.0),
       "breaker failure threshold must be in (0, 1]"},
      {on && !(breaker.latency_threshold_ms >= 0.0),
       "breaker latency threshold must be >= 0"},
      {on && breaker.open_duration.IsNegative(),
       "breaker open duration must be >= 0"},
  };
  for (const auto& check : checks) {
    if (check.bad) {
      return check.what;
    }
  }
  return "";
}

const OverloadControlConfig& CheckOverloadConfig(
    const OverloadControlConfig& config) {
  const std::string error = config.Validate();
  FAAS_CHECK(error.empty()) << "overload config: " << error;
  return config;
}

// --- CircuitBreaker --------------------------------------------------------

CircuitBreaker::CircuitBreaker(const CircuitBreakerConfig& config)
    : config_(config), outcomes_(static_cast<size_t>(config.window), 0) {}

void CircuitBreaker::ClearWindow() {
  std::fill(outcomes_.begin(), outcomes_.end(), 0);
  window_pos_ = 0;
  window_count_ = 0;
  bad_count_ = 0;
}

BreakerStep CircuitBreaker::RecordOutcome(bool bad, int64_t now_ns,
                                          OverloadLedger& ledger) {
  switch (state_) {
    case BreakerState::kClosed: {
      if (window_count_ < config_.window) {
        ++window_count_;
      } else {
        bad_count_ -= outcomes_[window_pos_];
      }
      outcomes_[window_pos_] = bad ? 1 : 0;
      bad_count_ += bad ? 1 : 0;
      window_pos_ = (window_pos_ + 1) % config_.window;
      if (window_count_ >= config_.min_samples &&
          static_cast<double>(bad_count_) >=
              config_.failure_threshold * static_cast<double>(window_count_)) {
        return Open(now_ns, ledger);
      }
      return {};
    }
    case BreakerState::kHalfOpen:
      if (probes_inflight_ > 0) {
        --probes_inflight_;
      }
      if (bad) {
        return Open(now_ns, ledger);
      }
      if (++probes_good_ < config_.half_open_probes) {
        return {};
      }
      state_ = BreakerState::kClosed;
      ++ledger.breaker_closes;
      EndDegraded(now_ns, ledger);
      return {BreakerStep::Change::kClosed};
    case BreakerState::kOpen:
      return {};  // Straggler outcome from before the trip.
  }
  return {};
}

BreakerStep CircuitBreaker::Open(int64_t now_ns, OverloadLedger& ledger) {
  state_ = BreakerState::kOpen;
  if (!degraded_) {
    // Re-opens from half-open extend the same degraded interval.
    degraded_ = true;
    degraded_since_ns_ = now_ns;
  }
  ++ledger.breaker_opens;
  // The next closed phase starts with a fresh window.
  ClearWindow();
  probes_inflight_ = 0;
  probes_good_ = 0;
  ++epoch_;
  return {BreakerStep::Change::kOpened,
          now_ns + Ns(config_.open_duration), epoch_};
}

bool CircuitBreaker::HalfOpen(uint32_t epoch, OverloadLedger& ledger) {
  if (epoch != epoch_ || state_ != BreakerState::kOpen) {
    return false;
  }
  state_ = BreakerState::kHalfOpen;
  probes_inflight_ = 0;
  probes_good_ = 0;
  ++ledger.breaker_half_opens;
  return true;
}

bool CircuitBreaker::Reset(int64_t now_ns, OverloadLedger& ledger) {
  const bool was_open = state_ == BreakerState::kOpen;
  state_ = BreakerState::kClosed;
  ClearWindow();
  probes_inflight_ = 0;
  probes_good_ = 0;
  ++epoch_;
  EndDegraded(now_ns, ledger);
  return was_open;
}

void CircuitBreaker::EndDegraded(int64_t now_ns, OverloadLedger& ledger) {
  if (!degraded_) {
    return;
  }
  degraded_ = false;
  const double open_ms = LedgerMs(now_ns - degraded_since_ns_);
  ++ledger.breaker_open_intervals;
  ledger.total_breaker_open_ms += open_ms;
  ledger.max_breaker_open_ms = std::max(ledger.max_breaker_open_ms, open_ms);
}

// --- HedgeTrigger ----------------------------------------------------------

HedgeTrigger::HedgeTrigger(const HedgeConfig& config, int64_t tick_ns)
    : latency_ms_(config.latency_percentile > 0.0
                      ? config.latency_percentile / 100.0
                      : 0.99),
      use_percentile_(config.latency_percentile > 0.0),
      after_ns_(Ns(config.after)),
      min_after_ns_(Ns(config.min_after)),
      tick_ns_(tick_ns),
      ticks_per_ms_(1e6 / static_cast<double>(tick_ns)) {}

int64_t HedgeTrigger::DelayNs() const {
  // The percentile needs a latency population before it means anything.
  if (use_percentile_ && latency_ms_.count() >= 32) {
    const auto ticks =
        static_cast<int64_t>(latency_ms_.Value() * ticks_per_ms_);
    return std::max(min_after_ns_, ticks * tick_ns_);
  }
  return after_ns_ > 0 ? after_ns_ : min_after_ns_;
}

}  // namespace faas
