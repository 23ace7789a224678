#include "pb/spans.h"

#include <algorithm>
#include <cstdio>

#include "pb/common.h"
#include "src/sim/compiled_trace.h"
#include "src/trace/types.h"

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kGenerate:
      return "workload.generate";
    case Layer::kCompile:
      return "sim.compile";
    case Layer::kReplay:
      return "sim.replay";
  }
  return "?";
}

PolicyTally& PolicyTally::operator+=(const PolicyTally& other) {
  calls += other.calls;
  histogram_decisions += other.histogram_decisions;
  histogram_ns += other.histogram_ns;
  arima_decisions += other.arima_decisions;
  arima_ns += other.arima_ns;
  static_ns += other.static_ns;
  hybrid_apps += other.hybrid_apps;
  state_bytes += other.state_bytes;
  slowest_app_ns = std::max(slowest_app_ns, other.slowest_app_ns);
  return *this;
}

SpanLog& SpanLog::Get() {
  static SpanLog log;
  return log;
}

SpanLog::Buffer& SpanLog::Local() {
  // One buffer per thread for the process lifetime (the log is a
  // never-destroyed-before-exit singleton, buffers are owned by it).
  thread_local Buffer* local = nullptr;
  if (local == nullptr) {
    auto buffer = std::make_unique<Buffer>();
    std::lock_guard<std::mutex> lock(mu_);
    buffer->tid = static_cast<int32_t>(buffers_.size());
    local = buffer.get();
    buffers_.push_back(std::move(buffer));
  }
  return *local;
}

void SpanLog::Record(const Span& span) {
  Buffer& buffer = Local();
  Span stamped = span;
  stamped.tid = buffer.tid;
  buffer.spans.push_back(stamped);
}

void SpanLog::AddTally(const PolicyTally& tally) { Local().tally += tally; }

int32_t SpanLog::ThreadOrdinal() { return Local().tid; }

std::vector<Span> SpanLog::CollectSpans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const auto& buffer : buffers_) {
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  return out;
}

PolicyTally SpanLog::CollectTally() const {
  std::lock_guard<std::mutex> lock(mu_);
  PolicyTally total;
  for (const auto& buffer : buffers_) {
    total += buffer->tally;
  }
  return total;
}

void SpanLog::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buffer : buffers_) {
    buffer->spans.clear();
    buffer->tally = PolicyTally{};
  }
}

bool SpanLog::WriteChromeTrace(const std::vector<Span>& spans,
                               const std::string& path) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::fputs("{\"traceEvents\":[\n", out);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"group\":%d,"
                 "\"child_us\":%.3f,\"arg\":%lld}}\n",
                 i == 0 ? "" : ",", LayerName(s.layer), s.tid,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.group,
                 static_cast<double>(s.child_ns) / 1e3,
                 static_cast<long long>(s.arg));
  }
  std::fputs("]}\n", out);
  return std::fclose(out) == 0;
}

int64_t ArenaBytes(const faas::CompiledTrace& arena) {
  return static_cast<int64_t>(
      (arena.times_ms.capacity() + arena.exec_ms.capacity()) *
          sizeof(int64_t) +
      arena.spans.capacity() * sizeof(faas::CompiledTrace::AppSpan) +
      arena.memory_mb.capacity() * sizeof(double));
}

TracedShardSource::TracedShardSource(faas::WorkloadGenerator& generator,
                                     int shard_apps)
    : generator_(generator),
      shard_apps_(shard_apps),
      num_apps_(generator.num_sampled_apps()),
      num_shards_((num_apps_ + shard_apps - 1) / shard_apps) {
  generator.PreparePlans();
}

int TracedShardSource::shard_end(int k) const {
  return std::min(shard_begin(k) + shard_apps_, num_apps_);
}

void TracedShardSource::Fill(int k, faas::CompiledTrace* arena) const {
  const int64_t t0 = NowNs();
  const faas::Trace shard = generator_.GenerateShard(shard_begin(k),
                                                     shard_end(k));
  const int64_t t1 = NowNs();
  faas::CompiledTrace::CompileRangeInto(shard, 0, shard.apps.size(), arena);
  const int64_t t2 = NowNs();
  SpanLog& log = SpanLog::Get();
  Span generate;
  generate.layer = Layer::kGenerate;
  generate.start_ns = t0;
  generate.end_ns = t1;
  generate.group = k;
  generate.arg = arena->total_invocations();
  log.Record(generate);
  Span compile;
  compile.layer = Layer::kCompile;
  compile.start_ns = t1;
  compile.end_ns = t2;
  compile.group = k;
  compile.arg = static_cast<int64_t>(arena->num_apps());
  compile.bytes = ArenaBytes(*arena);
  log.Record(compile);
}

TracedPolicy::TracedPolicy(std::unique_ptr<faas::KeepAlivePolicy> inner,
                           int32_t group, bool app_span)
    : inner_(std::move(inner)),
      hybrid_(dynamic_cast<const faas::HybridHistogramPolicy*>(inner_.get())),
      group_(group),
      app_span_(app_span),
      created_ns_(NowNs()) {}

TracedPolicy::~TracedPolicy() {
  const int64_t end = NowNs();
  if (hybrid_ != nullptr) {
    tally_.hybrid_apps = 1;
    tally_.state_bytes = static_cast<int64_t>(hybrid_->ApproximateSizeBytes());
  }
  SpanLog& log = SpanLog::Get();
  if (app_span_) {
    Span span;
    span.layer = Layer::kReplay;
    span.start_ns = created_ns_;
    span.end_ns = end;
    span.child_ns = tally_.histogram_ns + tally_.arima_ns + tally_.static_ns;
    span.group = group_;
    log.Record(span);
    tally_.slowest_app_ns = end - created_ns_;
  }
  log.AddTally(tally_);
}

void TracedPolicy::RecordIdleTime(faas::Duration idle_time) {
  const int64_t t0 = NowNs();
  inner_->RecordIdleTime(idle_time);
  pending_ns_ += NowNs() - t0;
}

void TracedPolicy::RecordIdleTimeAt(faas::TimePoint now,
                                    faas::Duration idle_time) {
  const int64_t t0 = NowNs();
  inner_->RecordIdleTimeAt(now, idle_time);
  pending_ns_ += NowNs() - t0;
}

faas::PolicyDecision TracedPolicy::NextWindows() {
  const int64_t t0 = NowNs();
  const faas::PolicyDecision decision = inner_->NextWindows();
  const int64_t ns = NowNs() - t0 + pending_ns_;
  pending_ns_ = 0;
  ++tally_.calls;
  if (hybrid_ == nullptr) {
    tally_.static_ns += ns;
  } else if (hybrid_->last_decision() ==
             faas::HybridHistogramPolicy::DecisionKind::kArima) {
    ++tally_.arima_decisions;
    tally_.arima_ns += ns;
  } else {
    ++tally_.histogram_decisions;
    tally_.histogram_ns += ns;
  }
  return decision;
}

}  // namespace perfbench
