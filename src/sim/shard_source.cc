#include "src/sim/shard_source.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/trace/types.h"
#include "src/workload/generator.h"

namespace faas {

namespace {

int ShardCount(int num_apps, int shard_apps) {
  FAAS_CHECK(shard_apps > 0) << "shard_apps must be positive";
  return num_apps == 0 ? 0 : (num_apps + shard_apps - 1) / shard_apps;
}

}  // namespace

TraceShardSource::TraceShardSource(const Trace& trace, int shard_apps,
                                   int num_threads)
    : trace_(trace),
      shard_apps_(shard_apps),
      num_apps_(static_cast<int>(trace.apps.size())),
      num_shards_(ShardCount(num_apps_, shard_apps)),
      num_threads_(num_threads) {}

int TraceShardSource::shard_begin(int k) const {
  FAAS_CHECK(k >= 0 && k < num_shards_) << "shard " << k << " out of range";
  return k * shard_apps_;
}

int TraceShardSource::shard_end(int k) const {
  return std::min(shard_begin(k) + shard_apps_, num_apps_);
}

void TraceShardSource::Fill(int k, CompiledTrace* arena) const {
  CompiledTrace::CompileRangeInto(trace_,
                                  static_cast<size_t>(shard_begin(k)),
                                  static_cast<size_t>(shard_end(k)), arena,
                                  num_threads_);
}

GeneratorShardSource::GeneratorShardSource(WorkloadGenerator& generator,
                                           int shard_apps, int num_threads)
    : generator_(generator),
      shard_apps_(shard_apps),
      num_apps_(generator.num_sampled_apps()),
      num_shards_(ShardCount(num_apps_, shard_apps)),
      num_threads_(num_threads) {
  FAAS_CHECK(generator.config().flash_crowd_count == 0)
      << "flash crowds are a global overlay; streamed generation requires "
         "flash_crowd_count == 0";
  // Pay the one-time global pass (structure sampling + rate ranking) here so
  // Fill is pure per-shard work.
  generator.PreparePlans();
}

int GeneratorShardSource::shard_begin(int k) const {
  FAAS_CHECK(k >= 0 && k < num_shards_) << "shard " << k << " out of range";
  return k * shard_apps_;
}

int GeneratorShardSource::shard_end(int k) const {
  return std::min(shard_begin(k) + shard_apps_, num_apps_);
}

void GeneratorShardSource::Fill(int k, CompiledTrace* arena) const {
  const Trace shard =
      generator_.GenerateShard(shard_begin(k), shard_end(k), num_threads_);
  CompiledTrace::CompileRangeInto(shard, 0, shard.apps.size(), arena,
                                  num_threads_);
}

}  // namespace faas
