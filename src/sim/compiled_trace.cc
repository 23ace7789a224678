#include "src/sim/compiled_trace.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/common/parallel.h"
#include "src/trace/entity_index.h"
#include "src/trace/types.h"

namespace faas {

const std::string& CompiledTrace::AppName(size_t app) const {
  return entities->AppName(AppId(app));
}

namespace {

// Lays apps [begin_app, end_app) of `trace` out in `out` (serial span prefix
// sum), then merges and sorts each app's streams into its span on up to
// num_threads threads.  Ties between functions break exactly as the legacy
// per-policy merge broke them: same insertion order, same time-only
// comparator, same (unstable) sort — and each app's sort sees the same
// input at any width, so the arenas are too.
void CompileApps(const Trace& trace, size_t begin_app, size_t end_app,
                 CompiledTrace* out, int num_threads) {
  out->horizon = trace.horizon;
  const size_t num_apps = end_app - begin_app;
  out->spans.resize(num_apps);
  out->memory_mb.resize(num_apps);
  size_t total = 0;
  for (size_t a = 0; a < num_apps; ++a) {
    const AppTrace& app = trace.apps[begin_app + a];
    out->spans[a].begin = total;
    for (const auto& function : app.functions) {
      total += function.invocations.size();
    }
    out->spans[a].end = total;
    out->memory_mb[a] = app.memory.average_mb;
  }
  out->times_ms.resize(total);
  out->exec_ms.resize(total);

  ParallelFor(
      num_apps,
      [&](size_t a) {
        // One merge buffer per participant, reused across apps and calls:
        // per-app scratch allocation would defeat the arena recycling of
        // the streamed sweep.
        thread_local std::vector<std::pair<int64_t, int64_t>> merged;
        const AppTrace& app = trace.apps[begin_app + a];
        const CompiledTrace::AppSpan span = out->spans[a];
        merged.clear();
        merged.reserve(span.size());
        for (const auto& function : app.functions) {
          const int64_t exec =
              static_cast<int64_t>(function.execution.average_ms);
          for (TimePoint t : function.invocations) {
            merged.emplace_back(t.millis_since_origin(), exec);
          }
        }
        std::sort(merged.begin(), merged.end(),
                  [](const std::pair<int64_t, int64_t>& lhs,
                     const std::pair<int64_t, int64_t>& rhs) {
                    return lhs.first < rhs.first;
                  });
        for (size_t i = 0; i < merged.size(); ++i) {
          out->times_ms[span.begin + i] = merged[i].first;
          out->exec_ms[span.begin + i] = merged[i].second;
        }
      },
      num_threads);
}

}  // namespace

CompiledTrace CompiledTrace::Compile(const Trace& trace, int num_threads) {
  CompiledTrace compiled;
  compiled.entities = EntityIndexFor(trace);
  CompileApps(trace, 0, trace.apps.size(), &compiled, num_threads);
  return compiled;
}

void CompiledTrace::CompileRangeInto(const Trace& trace, size_t begin_app,
                                     size_t end_app, CompiledTrace* out,
                                     int num_threads) {
  FAAS_CHECK(begin_app <= end_app && end_app <= trace.apps.size())
      << "app range [" << begin_app << ", " << end_app << ") out of [0, "
      << trace.apps.size() << ")";
  auto entities = std::make_shared<EntityIndex>();
  for (size_t a = begin_app; a < end_app; ++a) {
    entities->AddApp(trace.apps[a].owner_id, trace.apps[a].app_id);
  }
  out->entities = std::move(entities);
  CompileApps(trace, begin_app, end_app, out, num_threads);
}

}  // namespace faas
