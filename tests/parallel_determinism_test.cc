// The hard requirement behind host parallelism: GRANULA_HOST_THREADS must be
// a pure performance knob. For every implemented engine, running the same
// job with 1, 2, and 8 host threads must produce byte-identical serialized
// archives and bit-identical vertex values. These tests sweep the global pool size inside
// one process and byte-compare the outputs.

#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "granula/archive/archiver.h"
#include "graph/generators.h"
#include "platforms/dispatch.h"

namespace granula::platform {
namespace {

// Restores the process-wide pool size even when an assertion fails.
class PoolSizeGuard {
 public:
  PoolSizeGuard() : original_(ThreadPool::Global().num_threads()) {}
  ~PoolSizeGuard() { ThreadPool::Global().Resize(original_); }

 private:
  int original_;
};

struct RunOutput {
  std::string archive_json;
  std::vector<double> vertex_values;
};

RunOutput CaptureRun(const std::string& platform, algo::AlgorithmId id) {
  graph::DatagenConfig config;
  config.num_vertices = 2000;
  config.avg_degree = 8.0;
  config.seed = 11;
  auto g = graph::GenerateDatagen(config);
  EXPECT_TRUE(g.ok());

  algo::AlgorithmSpec spec;
  spec.id = id;
  spec.source = 1;
  if (id == algo::AlgorithmId::kPageRank) spec.max_iterations = 6;

  auto result =
      RunForPlatform(platform, *g, spec, cluster::ClusterConfig{}, JobConfig{});
  EXPECT_TRUE(result.ok()) << result.status();
  auto model = ModelForPlatform(platform);
  EXPECT_TRUE(model.ok()) << model.status();

  auto archive = core::Archiver().Build(*model, result->records,
                                        std::move(result->environment), {});
  EXPECT_TRUE(archive.ok()) << archive.status();
  return RunOutput{archive->ToJsonString(), result->vertex_values};
}

class ParallelDeterminism
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(ParallelDeterminism, ByteIdenticalAcrossHostThreadCounts) {
  auto [platform, algo_index] = GetParam();
  algo::AlgorithmId id = algo_index == 0 ? algo::AlgorithmId::kBfs
                                         : algo::AlgorithmId::kPageRank;
  PoolSizeGuard guard;
  ThreadPool::Global().Resize(1);
  RunOutput baseline = CaptureRun(platform, id);
  ASSERT_FALSE(baseline.archive_json.empty());
  ASSERT_FALSE(baseline.vertex_values.empty());

  for (int threads : {2, 8}) {
    ThreadPool::Global().Resize(threads);
    RunOutput out = CaptureRun(platform, id);
    // Byte-compare without dumping megabytes of JSON on mismatch.
    EXPECT_TRUE(out.archive_json == baseline.archive_json)
        << platform << " archive diverges at "
        << threads << " host threads (sizes " << out.archive_json.size()
        << " vs " << baseline.archive_json.size() << ")";
    EXPECT_TRUE(out.vertex_values == baseline.vertex_values)
        << platform << " vertex values diverge at " << threads
        << " host threads";
  }
}

std::string CaseName(
    const ::testing::TestParamInfo<std::tuple<std::string, int>>& info) {
  static const char* kAlgoNames[] = {"Bfs", "PageRank"};
  return std::get<0>(info.param) + "_" + kAlgoNames[std::get<1>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    AllPlatforms, ParallelDeterminism,
    ::testing::Combine(::testing::ValuesIn(ImplementedPlatformNames()),
                       ::testing::Range(0, 2)),
    CaseName);

// Same property for repeated runs at a fixed, oversubscribed thread count —
// guards against accidental dependence on thread scheduling (as opposed to
// thread count).
TEST(ParallelDeterminismTest, RepeatedRunsIdenticalWhenOversubscribed) {
  PoolSizeGuard guard;
  ThreadPool::Global().Resize(8);
  RunOutput a = CaptureRun("giraph", algo::AlgorithmId::kBfs);
  RunOutput b = CaptureRun("giraph", algo::AlgorithmId::kBfs);
  EXPECT_TRUE(a.archive_json == b.archive_json);
  EXPECT_TRUE(a.vertex_values == b.vertex_values);
}

}  // namespace
}  // namespace granula::platform
