// Shard-addressable generation properties: a shard materialised standalone
// must be bit-identical to the same AppId range sliced out of a full
// Generate(), for any shard partition and any materialize width — the
// foundation the streaming sweep engine's determinism rests on (see
// DESIGN.md).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/trace/entity_index.h"
#include "src/workload/generator.h"

namespace faas {
namespace {

GeneratorConfig SmallConfig() {
  GeneratorConfig config;
  config.num_apps = 150;
  config.days = 2;
  config.seed = 91;
  config.instants_rate_cap_per_day = 1200;
  // Enough one-shot and pattern-change apps that every materialize path
  // runs alongside the regular one (and the zero-invocation drop).
  config.frac_one_shot_apps = 0.1;
  config.pattern_change_fraction = 0.2;
  return config;
}

void ExpectAppsIdentical(const AppTrace& lhs, const AppTrace& rhs,
                         const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(lhs.owner_id, rhs.owner_id);
  EXPECT_EQ(lhs.app_id, rhs.app_id);
  EXPECT_EQ(lhs.memory.average_mb, rhs.memory.average_mb);
  EXPECT_EQ(lhs.memory.percentile1_mb, rhs.memory.percentile1_mb);
  EXPECT_EQ(lhs.memory.maximum_mb, rhs.memory.maximum_mb);
  EXPECT_EQ(lhs.memory.sample_count, rhs.memory.sample_count);
  ASSERT_EQ(lhs.functions.size(), rhs.functions.size());
  for (size_t f = 0; f < lhs.functions.size(); ++f) {
    const FunctionTrace& lf = lhs.functions[f];
    const FunctionTrace& rf = rhs.functions[f];
    EXPECT_EQ(lf.function_id, rf.function_id);
    EXPECT_EQ(lf.trigger, rf.trigger);
    EXPECT_EQ(lf.execution.average_ms, rf.execution.average_ms);
    EXPECT_EQ(lf.execution.minimum_ms, rf.execution.minimum_ms);
    EXPECT_EQ(lf.execution.maximum_ms, rf.execution.maximum_ms);
    EXPECT_EQ(lf.execution.count, rf.execution.count);
    ASSERT_EQ(lf.invocations.size(), rf.invocations.size());
    for (size_t i = 0; i < lf.invocations.size(); ++i) {
      ASSERT_EQ(lf.invocations[i], rf.invocations[i])
          << "function " << f << " invocation " << i;
    }
  }
}

void ExpectTracesIdentical(const std::vector<AppTrace>& lhs,
                           const std::vector<AppTrace>& rhs) {
  ASSERT_EQ(lhs.size(), rhs.size());
  for (size_t a = 0; a < lhs.size(); ++a) {
    ExpectAppsIdentical(lhs[a], rhs[a], "app " + std::to_string(a));
  }
}

TEST(GeneratorShardTest, ShardsConcatenateToFullGeneration) {
  const GeneratorConfig config = SmallConfig();
  const Trace full = WorkloadGenerator(config).Generate(/*num_threads=*/1);
  // The population drops zero-invocation apps and holds one-shot apps.
  ASSERT_LT(full.apps.size(), static_cast<size_t>(config.num_apps));
  ASSERT_TRUE(std::any_of(full.apps.begin(), full.apps.end(),
                          [](const AppTrace& app) {
                            return app.TotalInvocations() == 1;
                          }));

  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    WorkloadGenerator full_gen(config);
    ExpectTracesIdentical(full_gen.Generate(threads).apps, full.apps);
    for (const int shard_apps : {1, 7, 64, 150, 400}) {
      SCOPED_TRACE("shard_apps=" + std::to_string(shard_apps));
      WorkloadGenerator shard_gen(config);  // Fresh instance: no shared state.
      std::vector<AppTrace> stitched;
      for (int begin = 0; begin < config.num_apps; begin += shard_apps) {
        const int end = std::min(begin + shard_apps, config.num_apps);
        Trace shard = shard_gen.GenerateShard(begin, end, threads);
        EXPECT_EQ(shard.horizon, full.horizon);
        for (AppTrace& app : shard.apps) {
          stitched.push_back(std::move(app));
        }
      }
      ExpectTracesIdentical(stitched, full.apps);
    }
  }
}

TEST(GeneratorShardTest, StandaloneShardMatchesSliceWithoutFullGeneration) {
  // The generator that produces the shard never materialises anything else:
  // shard content must not depend on other shards having been generated.
  const GeneratorConfig config = SmallConfig();
  WorkloadGenerator full_gen(config);
  const Trace full = full_gen.Generate();

  WorkloadGenerator lone_gen(config);
  const Trace shard = lone_gen.GenerateShard(40, 90);

  // Locate the slice in the full trace via app ids (zero-invocation apps
  // are dropped, so positions shift).
  size_t cursor = 0;
  while (cursor < full.apps.size() &&
         full.apps[cursor].app_id != shard.apps.front().app_id) {
    ++cursor;
  }
  ASSERT_LT(cursor, full.apps.size());
  ASSERT_LE(cursor + shard.apps.size(), full.apps.size());
  for (size_t a = 0; a < shard.apps.size(); ++a) {
    ExpectAppsIdentical(shard.apps[a], full.apps[cursor + a],
                        "app " + std::to_string(a));
  }
}

TEST(GeneratorShardTest, GenerateShardIsIdempotent) {
  const GeneratorConfig config = SmallConfig();
  WorkloadGenerator gen(config);
  const Trace first = gen.GenerateShard(10, 30);
  const Trace again = gen.GenerateShard(10, 30);
  ASSERT_EQ(first.apps.size(), again.apps.size());
  for (size_t a = 0; a < first.apps.size(); ++a) {
    ExpectAppsIdentical(first.apps[a], again.apps[a],
                        "app " + std::to_string(a));
  }
}

TEST(GeneratorShardTest, GenerateIsIdempotent) {
  const GeneratorConfig config = SmallConfig();
  WorkloadGenerator gen(config);
  const Trace first = gen.Generate();
  const Trace again = gen.Generate();
  ASSERT_EQ(first.apps.size(), again.apps.size());
  for (size_t a = 0; a < first.apps.size(); ++a) {
    ExpectAppsIdentical(first.apps[a], again.apps[a],
                        "app " + std::to_string(a));
  }
}

TEST(GeneratorShardTest, ShardEntityIndexIsShardLocal) {
  WorkloadGenerator gen(SmallConfig());
  const Trace shard = gen.GenerateShard(20, 40);
  ASSERT_NE(shard.entities, nullptr);
  ASSERT_EQ(shard.entities->num_apps(), shard.apps.size());
  for (size_t a = 0; a < shard.apps.size(); ++a) {
    EXPECT_EQ(shard.entities->AppName(AppId(a)), shard.apps[a].app_id);
  }
}

TEST(GeneratorShardDeathTest, FlashCrowdsRejectShardGeneration) {
  GeneratorConfig config = SmallConfig();
  config.flash_crowd_count = 2;
  WorkloadGenerator gen(config);
  EXPECT_DEATH(gen.GenerateShard(0, 10), "flash");
}

TEST(GeneratorShardDeathTest, OutOfRangeShardDies) {
  WorkloadGenerator gen(SmallConfig());
  EXPECT_DEATH(gen.GenerateShard(-1, 10), "range");
  EXPECT_DEATH(gen.GenerateShard(0, 151), "range");
  EXPECT_DEATH(gen.GenerateShard(30, 20), "range");
}

}  // namespace
}  // namespace faas
