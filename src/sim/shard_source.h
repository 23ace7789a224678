// Shard sources: on-demand producers of compiled per-app-shard arenas for
// the streaming sweep engine (EvaluatePoliciesStreamed, src/sim/sweep.h).
//
// A ShardSource partitions a workload's app population into contiguous
// shards and materializes each shard's CompiledTrace arena on demand, so
// the sweep engine holds one shard at a time.  Two implementations:
//
//   TraceShardSource      slices an already-materialized Trace (CSV input);
//                         bounded *compiled* memory, the Trace itself is
//                         whatever the caller loaded.
//   GeneratorShardSource  materializes shards straight from a
//                         WorkloadGenerator via GenerateShard, so an
//                         Azure-scale synthetic sweep never constructs the
//                         full trace at all.  Requires flash crowds off
//                         (the overlay is a global cross-shard pass).
//
// Both build a shard on up to `num_threads` threads (their constructor's
// last argument: 0 = the shared pool's width, <= 1 = inline), parallel
// across the shard's apps.
//
// Contract: Fill(k, arena) must produce arenas that are a pure function of
// k — never of the order in which shards are requested or of the width.
// Both implementations get this for free: TraceShardSource reads an
// immutable Trace, and the generator's pass-1/pass-2 split means each app
// materializes from a copy of its own forked RNG stream into its own slot
// (see src/workload/generator.h).
//
// Within an arena, span i is shard-local AppId(i) in arena->entities; the
// sweep engine re-stamps global dense ids by offsetting with the number of
// surviving apps consumed in earlier shards.

#ifndef SRC_SIM_SHARD_SOURCE_H_
#define SRC_SIM_SHARD_SOURCE_H_

#include "src/sim/compiled_trace.h"

namespace faas {

struct Trace;
class WorkloadGenerator;

class ShardSource {
 public:
  virtual ~ShardSource() = default;

  // Number of shards; shards are consumed in index order.
  virtual int num_shards() const = 0;

  // Sampled apps covered by shard `k` (before zero-invocation drops); the
  // ranges are contiguous and cover the population exactly once.
  virtual int shard_begin(int k) const = 0;
  virtual int shard_end(int k) const = 0;

  // Compiles shard `k` into `arena`, reusing its buffer capacity.  The
  // arena's spans hold only the shard's *surviving* apps (zero-invocation
  // apps are dropped, exactly as in full materialization).
  virtual void Fill(int k, CompiledTrace* arena) const = 0;
};

// Shards an existing materialized trace: shard k covers apps
// [k * shard_apps, min((k + 1) * shard_apps, trace.apps.size())).
// The trace must outlive the source and not change under it.
class TraceShardSource : public ShardSource {
 public:
  TraceShardSource(const Trace& trace, int shard_apps, int num_threads = 0);

  int num_shards() const override { return num_shards_; }
  int shard_begin(int k) const override;
  int shard_end(int k) const override;
  void Fill(int k, CompiledTrace* arena) const override;

 private:
  const Trace& trace_;
  int shard_apps_;
  int num_apps_;
  int num_shards_;
  int num_threads_;
};

// Shards a workload generator's sampled-app range: shard k materializes
// sampled apps [k * shard_apps, ...) via GenerateShard.  The constructor
// runs pass 1 (PreparePlans) so Fill is pure per-shard work; the generator
// must outlive the source.  Flash crowds must be disabled in its config.
class GeneratorShardSource : public ShardSource {
 public:
  GeneratorShardSource(WorkloadGenerator& generator, int shard_apps,
                       int num_threads = 0);

  int num_shards() const override { return num_shards_; }
  int shard_begin(int k) const override;
  int shard_end(int k) const override;
  void Fill(int k, CompiledTrace* arena) const override;

 private:
  WorkloadGenerator& generator_;
  int shard_apps_;
  int num_apps_;
  int num_shards_;
  int num_threads_;
};

}  // namespace faas

#endif  // SRC_SIM_SHARD_SOURCE_H_
