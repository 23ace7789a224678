#include "src/sim/compiled_trace.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/parallel.h"
#include "src/trace/entity_index.h"
#include "src/trace/types.h"

namespace faas {

const std::string& CompiledTrace::AppName(size_t app) const {
  return entities->AppName(AppId(app));
}

namespace {

// One function's invocation stream, consumed front to back by the merge.
struct Run {
  int64_t head;  // *next, cached for the heap comparisons.
  const TimePoint* next;
  const TimePoint* end;
  int64_t exec;
};

// Restores the min-heap order on `head` of heap[0, n) after heap[0] rose.
void SiftDown(Run* heap, size_t n) {
  const Run moving = heap[0];
  size_t i = 0;
  for (size_t child = 1; child < n; child = 2 * i + 1) {
    if (child + 1 < n && heap[child + 1].head < heap[child].head) {
      ++child;
    }
    if (heap[child].head >= moving.head) {
      break;
    }
    heap[i] = heap[child];
    i = child;
  }
  heap[i] = moving;
}

// Merges the app's per-function streams into `times`/`exec` (span-sized)
// with a min-heap of runs keyed by their next instant.  Returns false, with
// the span partly written, at the first output step that is not
// (time, exec)-ascending with exec constant across equal times: an
// unsorted stream (the instant after an out-of-order one is emitted no
// later than it, so a descent shows in the output) or an equal-millisecond
// group that mixes execution durations, whose order only the legacy sort
// defines.  When it returns true the span holds the unique sort of the
// app's (time, exec) pairs by time, which is what the legacy sort yields.
bool MergeSortedRuns(const AppTrace& app, int64_t* times, int64_t* exec) {
  thread_local std::vector<Run> heap;
  heap.clear();
  for (const auto& function : app.functions) {
    const std::vector<TimePoint>& stream = function.invocations;
    if (!stream.empty()) {
      heap.push_back({stream.front().millis_since_origin(), stream.data(),
                      stream.data() + stream.size(),
                      static_cast<int64_t>(function.execution.average_ms)});
    }
  }
  std::make_heap(heap.begin(), heap.end(),
                 [](const Run& lhs, const Run& rhs) {
                   return lhs.head > rhs.head;
                 });
  size_t n = heap.size();
  size_t out = 0;
  int64_t last_time = std::numeric_limits<int64_t>::min();
  int64_t last_exec = 0;
  while (n > 0) {
    Run& top = heap[0];
    // Emit from the top run while it stays strictly ahead of every other
    // run (the smaller of the root's children); an equal instant goes back
    // through the heap.
    int64_t limit = std::numeric_limits<int64_t>::max();
    if (n > 1) {
      limit = n > 2 ? std::min(heap[1].head, heap[2].head) : heap[1].head;
    }
    bool exhausted = false;
    do {
      const int64_t t = top.head;
      if (t < last_time || (t == last_time && top.exec != last_exec)) {
        return false;
      }
      times[out] = t;
      exec[out] = top.exec;
      ++out;
      last_time = t;
      last_exec = top.exec;
      exhausted = ++top.next == top.end;
      if (!exhausted) {
        top.head = top.next->millis_since_origin();
      }
    } while (!exhausted && top.head < limit);
    if (exhausted) {
      top = heap[--n];
    }
    SiftDown(heap.data(), n);
  }
  return true;
}

// The legacy merge: concatenate the streams in function order and sort by
// time alone with the same (unstable) std::sort.
void SortRuns(const AppTrace& app, int64_t* times, int64_t* exec) {
  // One buffer per participant, reused across apps and calls: per-app
  // scratch allocation would defeat the arena recycling of the streamed
  // sweep.  Only apps that take this path grow it.
  thread_local std::vector<std::pair<int64_t, int64_t>> merged;
  merged.clear();
  for (const auto& function : app.functions) {
    const int64_t function_exec =
        static_cast<int64_t>(function.execution.average_ms);
    for (TimePoint t : function.invocations) {
      merged.emplace_back(t.millis_since_origin(), function_exec);
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const std::pair<int64_t, int64_t>& lhs,
               const std::pair<int64_t, int64_t>& rhs) {
              return lhs.first < rhs.first;
            });
  for (size_t i = 0; i < merged.size(); ++i) {
    times[i] = merged[i].first;
    exec[i] = merged[i].second;
  }
}

// Lays apps [begin_app, end_app) of `trace` out in `out` (serial span prefix
// sum), then merges each app's streams into its span on up to num_threads
// threads.  The arenas equal the legacy per-policy merge (concatenate in
// function order, std::sort by time alone) at any width: the run merge
// writes the legacy result whenever that result is unique, and every other
// app (an unsorted stream, or an equal-millisecond group that mixes
// execution durations, whose order the unstable sort alone decides) falls
// back to that very sort of the same input.
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
        const AppTrace& app = trace.apps[begin_app + a];
        int64_t* times = out->times_ms.data() + out->spans[a].begin;
        int64_t* exec = out->exec_ms.data() + out->spans[a].begin;
        if (!MergeSortedRuns(app, times, exec)) {
          SortRuns(app, times, exec);
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
