// Overload control plane: the knobs, the ledger, and the three mechanisms.
//
// The pre-overload controller had exactly two answers when every healthy
// invoker was out of memory: drop the activation on the floor
// or burn retry budget spinning against a saturated fleet.  Real FaaS
// front-ends survive flash crowds with *bounded* queues, shedding, and
// circuit breakers instead.  This header holds the configuration for the
// three mechanisms, and the one implementation of each —
//
//   1. a bounded admission queue (FIFO / LIFO / CoDel-style age shedding)
//      that activations enter when no invoker has capacity and that drains
//      on container-release events rather than blind backoff;
//   2. per-invoker concurrency caps and circuit breakers
//      (closed -> open -> half-open, driven by a rolling failure + latency
//      window, so chaos-engine crashes and latency spikes trip them);
//   3. hedged dispatch for cold-start-prone activations (a second attempt on
//      a different invoker after a latency threshold, first completion wins)
//
// — plus the OverloadLedger that tallies what they did (mirroring
// FaultLedger, comparable so determinism tests can assert bit-identity).
// AdmissionQueue<T>, CircuitBreaker and HedgeTrigger are plain values with
// no clock of their own: methods take `now` in int64 nanoseconds and return
// what the caller must arm, on its own substrate — the cluster Controller's
// EventQueue (milliseconds scaled to ns) or the serving AdmissionBridge's
// TimerWheel.
//
// Disabled-by-default contract: a default OverloadControlConfig enables
// nothing, schedules no events, draws no random numbers and registers no
// callbacks, so a replay with the control plane off is bit-identical to the
// pre-overload engine.

#ifndef SRC_CLUSTER_OVERLOAD_H_
#define SRC_CLUSTER_OVERLOAD_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/time.h"
#include "src/stats/p2_quantile.h"

namespace faas {

// How the admission queue picks victims when space or patience runs out.
enum class AdmissionDiscipline {
  // Serve oldest first; a full queue tail-drops the arriving activation.
  kFifo,
  // Serve newest first; a full queue sheds the OLDEST queued activation to
  // admit the newcomer (fresh requests are the ones a caller still wants).
  kLifo,
  // FIFO service order plus CoDel-style age shedding: every queued
  // activation carries a deadline of `max_wait` past its enqueue time and is
  // shed when it expires (sojourn-bounded, so the queue cannot hide
  // unbounded latency behind "eventually served").
  kCoDel,
};

// "fifo" / "lifo" / "codel" (case-sensitive), nullopt otherwise.
std::optional<AdmissionDiscipline> ParseAdmissionDiscipline(
    std::string_view name);
const char* AdmissionDisciplineName(AdmissionDiscipline discipline);

struct AdmissionQueueConfig {
  // Maximum queued activations; 0 (the default) disables the queue entirely
  // and restores the pre-overload drop-on-saturation behaviour.
  int capacity = 0;
  AdmissionDiscipline discipline = AdmissionDiscipline::kFifo;
  // CoDel age bound: a queued activation older than this is shed.  Ignored
  // by the FIFO/LIFO disciplines (they bound space, not sojourn).
  Duration max_wait = Duration::Seconds(30);

  bool enabled() const { return capacity > 0; }
};

struct CircuitBreakerConfig {
  bool enabled = false;
  // Rolling per-invoker outcome window evaluated while the breaker is
  // closed: with at least `min_samples` outcomes recorded, a bad fraction of
  // `failure_threshold` or more opens the breaker.
  int window = 20;
  int min_samples = 10;
  double failure_threshold = 0.5;
  // A completion slower end-to-end than this also counts as a bad outcome
  // (latency-tripped breakers, e.g. under a chaos-engine cold-start spike).
  // 0 disables the latency signal; failures alone feed the window.
  double latency_threshold_ms = 0.0;
  // Open -> half-open after this cool-down.
  Duration open_duration = Duration::Seconds(30);
  // Half-open admits at most this many concurrent probe activations; this
  // many consecutive good outcomes close the breaker, any bad one re-opens.
  int half_open_probes = 3;
};

struct HedgeConfig {
  // Launch a second attempt on a different invoker when the first has not
  // completed after this fixed delay.  Zero = no fixed trigger.
  Duration after = Duration::Zero();
  // Alternative percentile trigger: hedge once the attempt outlives this
  // percentile of observed end-to-end completion latency (P-square estimate,
  // e.g. 99 for p99 hedging).  0 = use the fixed `after` delay only.
  double latency_percentile = 0.0;
  // Floor under the percentile trigger (and the fallback before enough
  // latency samples exist): never hedge earlier than this.
  Duration min_after = Duration::Millis(100);

  bool enabled() const {
    return after > Duration::Zero() || latency_percentile > 0.0;
  }
};

struct OverloadControlConfig {
  AdmissionQueueConfig admission;
  CircuitBreakerConfig breaker;
  HedgeConfig hedge;
  // Per-invoker cap on concurrently-executing activations (0 = unlimited).
  // Enforced by the invoker itself; a cap rejection surfaces to the
  // controller as "no capacity", which feeds the admission queue.
  int invoker_concurrency_cap = 0;

  bool AnyEnabled() const {
    return admission.enabled() || breaker.enabled || hedge.enabled() ||
           invoker_concurrency_cap > 0;
  }

  // Empty when every knob is usable; otherwise a one-line description of
  // the first bad one (the tools print it as a flag error).
  std::string Validate() const;
};

// FAAS_CHECKs `config.Validate()` and returns `config`, so constructors can
// validate in their initializer lists before any mechanism is built.
const OverloadControlConfig& CheckOverloadConfig(
    const OverloadControlConfig& config);

// Tally of everything the overload control plane observed during a replay.
// Comparable so determinism tests can assert bit-identical ledgers; all-zero
// when the control plane is disabled.
struct OverloadLedger {
  // Admission queue.
  int64_t queued = 0;            // Activations that entered the queue.
  int64_t drained = 0;           // Left the queue via a successful dispatch.
  int64_t shed_queue_full = 0;   // Shed because the queue was at capacity.
  int64_t shed_deadline = 0;     // Shed by the CoDel age bound.
  int64_t shed_at_shutdown = 0;  // Still queued when the replay ended.
  double total_queue_wait_ms = 0.0;  // Over drained activations.
  double max_queue_wait_ms = 0.0;

  // Hedged dispatch.
  int64_t hedges_launched = 0;
  int64_t hedges_unplaced = 0;     // No second invoker had room; fizzled.
  int64_t hedge_wins = 0;          // The hedge completed first.
  int64_t hedge_primary_wins = 0;  // The primary beat its hedge.

  // Circuit breakers.
  int64_t breaker_opens = 0;
  int64_t breaker_half_opens = 0;
  int64_t breaker_closes = 0;
  // Dispatch attempts deflected from an invoker by a non-closed breaker
  // (counted per invoker-level skip, so one activation can deflect several
  // times while failing over).
  int64_t breaker_rejections = 0;
  // Per-invoker concurrency-cap refusals (summed from the invokers).
  int64_t cap_rejections = 0;
  // Degraded-mode intervals: spans from a breaker first leaving closed to
  // its next close (or the end of the replay).
  int64_t breaker_open_intervals = 0;
  double total_breaker_open_ms = 0.0;
  double max_breaker_open_ms = 0.0;

  int64_t TotalShed() const {
    return shed_queue_full + shed_deadline + shed_at_shutdown;
  }
  double MeanQueueWaitMs() const {
    return drained > 0 ? total_queue_wait_ms / static_cast<double>(drained)
                       : 0.0;
  }

  // Merge semantics for MergeLedger (src/common/resource_ledger.h): sums
  // everywhere except the two per-shard maxima.
  template <class V>
  static void VisitMergeFields(V& v) {
    v.Sum(&OverloadLedger::queued);
    v.Sum(&OverloadLedger::drained);
    v.Sum(&OverloadLedger::shed_queue_full);
    v.Sum(&OverloadLedger::shed_deadline);
    v.Sum(&OverloadLedger::shed_at_shutdown);
    v.Sum(&OverloadLedger::total_queue_wait_ms);
    v.Max(&OverloadLedger::max_queue_wait_ms);
    v.Sum(&OverloadLedger::hedges_launched);
    v.Sum(&OverloadLedger::hedges_unplaced);
    v.Sum(&OverloadLedger::hedge_wins);
    v.Sum(&OverloadLedger::hedge_primary_wins);
    v.Sum(&OverloadLedger::breaker_opens);
    v.Sum(&OverloadLedger::breaker_half_opens);
    v.Sum(&OverloadLedger::breaker_closes);
    v.Sum(&OverloadLedger::breaker_rejections);
    v.Sum(&OverloadLedger::cap_rejections);
    v.Sum(&OverloadLedger::breaker_open_intervals);
    v.Sum(&OverloadLedger::total_breaker_open_ms);
    v.Max(&OverloadLedger::max_breaker_open_ms);
  }

  bool operator==(const OverloadLedger&) const = default;
};

enum class BreakerState : uint8_t { kClosed, kOpen, kHalfOpen };

// What a CircuitBreaker call changed.  On kOpened the caller arms its own
// timer for `half_open_at_ns` and, when it fires, calls HalfOpen(epoch).
struct BreakerStep {
  enum class Change : uint8_t { kNone, kOpened, kClosed };
  Change change = Change::kNone;
  int64_t half_open_at_ns = 0;
  uint32_t epoch = 0;
};

// One invoker's circuit breaker: closed -> open -> half-open -> closed.
//
// Closed, every outcome enters a rolling window; with at least
// `min_samples` outcomes a bad fraction of `failure_threshold` or more opens
// the breaker.  Open admits nothing for `open_duration`, then half-open
// admits up to `half_open_probes` concurrent dispatches.  Half-open, ANY
// outcome is a probe result — including a straggler dispatched before the
// trip — so a bad one re-opens and `half_open_probes` good ones close; the
// in-flight probe count never goes below zero.  Open ignores outcomes.
//
// A degraded interval runs from the first departure from closed to the next
// close, Reset or Shutdown, and is booked into the OverloadLedger then.
// Each open and each Reset mints a new epoch, so a half-open timer armed
// for an earlier open is recognised as stale.
class CircuitBreaker {
 public:
  explicit CircuitBreaker(const CircuitBreakerConfig& config);

  BreakerState state() const { return state_; }

  bool Admits() const {
    return state_ == BreakerState::kClosed ||
           (state_ == BreakerState::kHalfOpen &&
            probes_inflight_ < config_.half_open_probes);
  }
  // A dispatch landed on the invoker; while half-open it is a probe.
  void NoteDispatch() {
    if (state_ == BreakerState::kHalfOpen) {
      ++probes_inflight_;
    }
  }

  BreakerStep RecordOutcome(bool bad, int64_t now_ns, OverloadLedger& ledger);
  // A completion `latency_ms` long: bad when it exceeds the configured
  // latency threshold (if any).
  BreakerStep RecordCompletion(double latency_ms, int64_t now_ns,
                               OverloadLedger& ledger) {
    return RecordOutcome(config_.latency_threshold_ms > 0.0 &&
                             latency_ms > config_.latency_threshold_ms,
                         now_ns, ledger);
  }
  // The half-open timer armed for `epoch` fired.  False (and no change)
  // when the timer is stale or the breaker is no longer open.
  bool HalfOpen(uint32_t epoch, OverloadLedger& ledger);
  // The invoker was rebuilt: back to a fresh closed breaker, booking any
  // degraded interval at `now_ns` (not counted as a close) and staling
  // armed timers.  Returns true when the breaker was open.
  bool Reset(int64_t now_ns, OverloadLedger& ledger);
  // End of the run: books a degraded interval still open at `now_ns`.
  void Shutdown(int64_t now_ns, OverloadLedger& ledger) {
    EndDegraded(now_ns, ledger);
  }

 private:
  BreakerStep Open(int64_t now_ns, OverloadLedger& ledger);
  void EndDegraded(int64_t now_ns, OverloadLedger& ledger);
  void ClearWindow();

  CircuitBreakerConfig config_;
  BreakerState state_ = BreakerState::kClosed;
  std::vector<int8_t> outcomes_;  // Rolling ring, 1 = bad.
  int window_pos_ = 0;
  int window_count_ = 0;
  int bad_count_ = 0;
  int probes_inflight_ = 0;
  int probes_good_ = 0;
  uint32_t epoch_ = 0;
  bool degraded_ = false;
  int64_t degraded_since_ns_ = 0;
};

// When to launch a hedge: after the fixed `after` delay, or once the
// attempt outlives the observed `latency_percentile` of completion latency
// (P-square estimate, floored at `min_after`, and only after 32 samples;
// before that the fixed delay or the floor applies).
class HedgeTrigger {
 public:
  // `tick_ns` is the caller's clock resolution: the percentile estimate is
  // truncated to whole ticks, as a clock of that resolution would (1 ms in
  // the simulator, 1 ns on the wall clock).
  HedgeTrigger(const HedgeConfig& config, int64_t tick_ns);

  void Observe(double latency_ms) { latency_ms_.Add(latency_ms); }
  int64_t DelayNs() const;

 private:
  P2Quantile latency_ms_;
  bool use_percentile_;
  int64_t after_ns_;
  int64_t min_after_ns_;
  int64_t tick_ns_;
  double ticks_per_ms_;
};

// The admission queue and its discipline: which end is served next and
// which item a full queue gives up for an arrival.  Age shedding (CoDel
// timers, per-request deadlines) and removal of superseded entries stay
// with the caller, which knows what its items refer to.
template <class T>
class AdmissionQueue {
 public:
  explicit AdmissionQueue(const AdmissionQueueConfig& config)
      : capacity_(config.capacity > 0 ? static_cast<size_t>(config.capacity)
                                      : 0),
        lifo_(config.discipline == AdmissionDiscipline::kLifo) {}

  bool empty() const { return items_.empty(); }
  size_t size() const { return items_.size(); }
  bool full() const { return items_.size() >= capacity_; }

  // For an arrival at a full queue.  LIFO pops and returns the OLDEST
  // queued item, to be shed so the arrival can be pushed (fresh requests
  // are the ones a caller still waits on); FIFO and CoDel return nullopt:
  // the arrival itself is tail-dropped.
  std::optional<T> ShedForArrival() {
    if (!lifo_ || items_.empty()) {
      return std::nullopt;
    }
    T oldest = std::move(items_.front());
    items_.pop_front();
    return oldest;
  }
  void Push(T item) { items_.push_back(std::move(item)); }

  // The item served next: newest under LIFO, oldest otherwise.
  T& Next() { return lifo_ ? items_.back() : items_.front(); }
  void PopNext() {
    if (lifo_) {
      items_.pop_back();
    } else {
      items_.pop_front();
    }
  }

  template <class Pred>
  void EraseIf(Pred pred) {
    std::erase_if(items_, pred);
  }
  void clear() { items_.clear(); }
  // Oldest first.
  auto begin() const { return items_.begin(); }
  auto end() const { return items_.end(); }

 private:
  size_t capacity_;
  bool lifo_;
  std::deque<T> items_;
};

}  // namespace faas

#endif  // SRC_CLUSTER_OVERLOAD_H_
