// Benchmark-side tracing: spans around calls into the repository's public
// interfaces, kept in per-thread memory and collected once the traced work
// has quiesced.  Nothing here changes what the wrapped code computes:
//
//   TracedShardSource   a ShardSource that materializes shard k itself with
//                       WorkloadGenerator::GenerateShard and
//                       CompiledTrace::CompileRangeInto, timing each call
//                       (the same two calls GeneratorShardSource makes);
//   TracedPolicyFactory stamps out TracedPolicy wrappers that forward every
//                       KeepAlivePolicy call (HasStaticDecision included, so
//                       fixed policies keep the simulator's static replay),
//                       time each decision, read the hybrid policy's
//                       last_decision(), and record one span per app replay
//                       from CreateForApp to the wrapper's destruction.
#ifndef PERFBENCH_PB_SPANS_H_
#define PERFBENCH_PB_SPANS_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/policy/hybrid.h"
#include "src/policy/policy.h"
#include "src/sim/shard_source.h"
#include "src/workload/generator.h"

namespace perfbench {

enum class Layer : uint8_t {
  kGenerate,  // WorkloadGenerator::GenerateShard
  kCompile,   // CompiledTrace::CompileRangeInto
  kReplay,    // One app under one policy: CreateForApp .. policy destroyed
};
const char* LayerName(Layer layer);

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t child_ns = 0;  // Time inside traced callees (policy decisions).
  int64_t arg = 0;       // kGenerate: invocations; kCompile: apps.
  int64_t bytes = 0;     // kCompile: arena capacity in bytes.
  int32_t tid = 0;       // Dense per-process thread ordinal.
  int32_t group = 0;     // kGenerate/kCompile: shard; kReplay: policy index.
  Layer layer = Layer::kReplay;

  int64_t self_ns() const { return end_ns - start_ns - child_ns; }
};

// Decision tallies folded from every TracedPolicy on one thread.
struct PolicyTally {
  int64_t calls = 0;  // NextWindows() decisions.
  int64_t histogram_decisions = 0;  // Histogram + standard keep-alive.
  int64_t histogram_ns = 0;
  int64_t arima_decisions = 0;
  int64_t arima_ns = 0;
  int64_t static_ns = 0;  // Decisions of static (fixed) policies.
  int64_t hybrid_apps = 0;   // Hybrid policy instances.
  int64_t state_bytes = 0;   // Their ApproximateSizeBytes, summed at end.
  int64_t slowest_app_ns = 0;

  PolicyTally& operator+=(const PolicyTally& other);
};

// Process-wide span log.  Record() appends to a buffer owned by the calling
// thread; Collect()/Reset() must only run while no traced work is in
// flight (after the parallel region that produced the spans returned).
class SpanLog {
 public:
  static SpanLog& Get();

  void Record(const Span& span);
  void AddTally(const PolicyTally& tally);
  // Ordinal of the calling thread (registers it on first use).
  int32_t ThreadOrdinal();

  std::vector<Span> CollectSpans() const;
  PolicyTally CollectTally() const;
  void Reset();

  // Chrome trace_event JSON of `spans` (load in Perfetto / chrome://tracing).
  static bool WriteChromeTrace(const std::vector<Span>& spans,
                               const std::string& path);

 private:
  struct Buffer {
    int32_t tid = 0;
    std::vector<Span> spans;
    PolicyTally tally;
  };
  Buffer& Local();

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // Guarded by mu_.
};

// Capacity of a compiled arena's buffers.
int64_t ArenaBytes(const faas::CompiledTrace& arena);

class TracedShardSource final : public faas::ShardSource {
 public:
  TracedShardSource(faas::WorkloadGenerator& generator, int shard_apps);

  int num_shards() const override { return num_shards_; }
  int shard_begin(int k) const override { return k * shard_apps_; }
  int shard_end(int k) const override;
  void Fill(int k, faas::CompiledTrace* arena) const override;

 private:
  faas::WorkloadGenerator& generator_;
  int shard_apps_;
  int num_apps_;
  int num_shards_;
};

class TracedPolicy final : public faas::KeepAlivePolicy {
 public:
  TracedPolicy(std::unique_ptr<faas::KeepAlivePolicy> inner, int32_t group,
               bool app_span);
  ~TracedPolicy() override;
  TracedPolicy(const TracedPolicy&) = delete;
  TracedPolicy& operator=(const TracedPolicy&) = delete;

  void RecordIdleTime(faas::Duration idle_time) override;
  void RecordIdleTimeAt(faas::TimePoint now,
                        faas::Duration idle_time) override;
  faas::PolicyDecision NextWindows() override;
  bool HasStaticDecision() const override {
    return inner_->HasStaticDecision();
  }
  std::string name() const override { return inner_->name(); }
  size_t ApproximateSizeBytes() const override {
    return inner_->ApproximateSizeBytes();
  }
  std::unique_ptr<faas::PolicyStateSnapshot> SnapshotState() const override {
    return inner_->SnapshotState();
  }
  bool RestoreState(const faas::PolicyStateSnapshot& snapshot) override {
    return inner_->RestoreState(snapshot);
  }
  void WipeState() override { inner_->WipeState(); }
  bool IsLearning() const override { return inner_->IsLearning(); }

 private:
  std::unique_ptr<faas::KeepAlivePolicy> inner_;
  const faas::HybridHistogramPolicy* hybrid_;  // Null for other kinds.
  int32_t group_;
  bool app_span_;
  int64_t created_ns_;
  int64_t pending_ns_ = 0;  // RecordIdleTime cost awaiting its decision.
  PolicyTally tally_;
};

class TracedPolicyFactory final : public faas::PolicyFactory {
 public:
  // `group` tags spans (the policy's index in the sweep); `app_spans`
  // records one kReplay span per instance (sweeps: one instance per app).
  TracedPolicyFactory(const faas::PolicyFactory& inner, int32_t group,
                      bool app_spans)
      : inner_(inner), group_(group), app_spans_(app_spans) {}

  std::unique_ptr<faas::KeepAlivePolicy> CreateForApp() const override {
    return std::make_unique<TracedPolicy>(inner_.CreateForApp(), group_,
                                          app_spans_);
  }
  std::string name() const override { return inner_.name(); }

 private:
  const faas::PolicyFactory& inner_;
  int32_t group_;
  bool app_spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PB_SPANS_H_
