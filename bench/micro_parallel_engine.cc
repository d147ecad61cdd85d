// Host-parallelism benchmarks: superstep compute throughput versus
// GRANULA_HOST_THREADS (the ISSUE acceptance axis — >=3x at 8 threads on a
// >=1M-scale graph, given >=8 physical cores), plus microbenches for the
// sharded MessageStore deliver/merge path, CSR construction and the
// edge-list file reader.
//
// Every benchmark sweeps the thread axis via ThreadPool::Global().Resize(),
// so one process produces the whole scaling curve; tools/run_bench.sh emits
// the curve as BENCH_engine.json. The axis stops at the host's core count:
// more pool threads than cores only measure oversubscription.

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include <benchmark/benchmark.h>

#include "bench/thread_axis.h"
#include "common/thread_pool.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "platforms/graphmat.h"
#include "platforms/hadoop.h"
#include "platforms/message_store.h"
#include "platforms/pgxd.h"

namespace granula {
namespace {

// ~1.7M-scale graph (150k vertices + ~1.5M arcs) shared by the engine
// benches; built once per process.
const graph::Graph& BigGraph() {
  static const graph::Graph* g = [] {
    graph::DatagenConfig config;
    config.num_vertices = 150'000;
    config.avg_degree = 10.0;
    config.seed = 7;
    return new graph::Graph(
        std::move(graph::GenerateDatagen(config)).value());
  }();
  return *g;
}

algo::AlgorithmSpec PageRank(uint64_t iterations) {
  algo::AlgorithmSpec spec;
  spec.id = algo::AlgorithmId::kPageRank;
  spec.max_iterations = iterations;
  return spec;
}

// Superstep-heavy end-to-end run: PageRank keeps every vertex active, so
// host time is dominated by the data-parallel compute inside supersteps —
// the part the thread pool accelerates. range(0) = host threads.
void BM_GraphMatPageRankSupersteps(benchmark::State& state) {
  const graph::Graph& g = BigGraph();
  ThreadPool::Global().Resize(static_cast<int>(state.range(0)));
  platform::GraphMatPlatform graphmat;
  for (auto _ : state) {
    auto result = graphmat.Run(g, PageRank(5), cluster::ClusterConfig{},
                               platform::JobConfig{});
    benchmark::DoNotOptimize(result);
  }
  ThreadPool::Global().Resize(1);
  state.SetItemsProcessed(state.iterations() * 5 *
                          static_cast<int64_t>(g.num_edges()));
}
BENCHMARK(BM_GraphMatPageRankSupersteps)
    ->Apply(ThreadAxis)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_PgxdPageRankSupersteps(benchmark::State& state) {
  const graph::Graph& g = BigGraph();
  ThreadPool::Global().Resize(static_cast<int>(state.range(0)));
  platform::PgxdPlatform pgxd;
  for (auto _ : state) {
    auto result = pgxd.Run(g, PageRank(5), cluster::ClusterConfig{},
                           platform::JobConfig{});
    benchmark::DoNotOptimize(result);
  }
  ThreadPool::Global().Resize(1);
  state.SetItemsProcessed(state.iterations() * 5 *
                          static_cast<int64_t>(g.num_edges()));
}
BENCHMARK(BM_PgxdPageRankSupersteps)
    ->Apply(ThreadAxis)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The Pregel job core on its MapReduce structure: map-side Compute over
// each task's partition, deliveries into per-chunk shards, the merge at
// every superstep barrier.
void BM_HadoopPageRankSupersteps(benchmark::State& state) {
  const graph::Graph& g = BigGraph();
  ThreadPool::Global().Resize(static_cast<int>(state.range(0)));
  platform::HadoopPlatform hadoop;
  for (auto _ : state) {
    auto result = hadoop.Run(g, PageRank(5), cluster::ClusterConfig{},
                             platform::JobConfig{});
    benchmark::DoNotOptimize(result);
  }
  ThreadPool::Global().Resize(1);
  state.SetItemsProcessed(state.iterations() * 5 *
                          static_cast<int64_t>(g.num_edges()));
}
BENCHMARK(BM_HadoopPageRankSupersteps)
    ->Apply(ThreadAxis)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Isolated MessageStore path: sharded deliver (range(0) host threads, one
// shard per chunk) followed by the merge at Swap. Models one full-frontier
// superstep exchanging ~10 messages per vertex.
void BM_MessageStoreDeliverMerge(benchmark::State& state) {
  constexpr uint64_t kVertices = 200'000;
  constexpr uint64_t kPerVertex = 10;
  ThreadPool& pool = ThreadPool::Global();
  pool.Resize(static_cast<int>(state.range(0)));
  platform::MessageStore store(kVertices, algo::Combiner::kSum);
  for (auto _ : state) {
    uint64_t grain = ChunkedGrain(kVertices);
    uint64_t first = store.AddShards(ThreadPool::NumChunks(kVertices, grain));
    pool.ParallelFor(0, kVertices, grain,
                     [&](uint64_t chunk, uint64_t lo, uint64_t hi) {
                       uint64_t shard = first + chunk;
                       for (uint64_t v = lo; v < hi; ++v) {
                         for (uint64_t k = 0; k < kPerVertex; ++k) {
                           store.Deliver(shard, (v * 17 + k * 31) % kVertices,
                                         1.0);
                         }
                       }
                     });
    store.Swap();
    benchmark::DoNotOptimize(store.current_total());
  }
  pool.Resize(1);
  state.SetItemsProcessed(state.iterations() * kVertices * kPerVertex);
}
BENCHMARK(BM_MessageStoreDeliverMerge)
    ->Apply(ThreadAxis)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Undirected CSR construction over the big graph's edge list (a counting
// build on the calling thread: the axis shows it does not use the pool).
void BM_CsrBuild(benchmark::State& state) {
  const graph::Graph& g = BigGraph();
  ThreadPool::Global().Resize(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    graph::Csr csr = graph::Csr::BuildUndirected(g.num_vertices(), g.edges());
    benchmark::DoNotOptimize(csr.num_arcs());
  }
  ThreadPool::Global().Resize(1);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.num_edges()));
}
BENCHMARK(BM_CsrBuild)
    ->Apply(ThreadAxis)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Parsing a 50k-vertex Datagen edge-list file (the perfbench sweep graph's
// size, ~375k edges, ~4 MB) into a Graph: one read, single-threaded.
void BM_ReadEdgeListFile(benchmark::State& state) {
  graph::DatagenConfig config;
  config.num_vertices = 50'000;
  const graph::Graph g = std::move(graph::GenerateDatagen(config)).value();
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("granula_bench_graph_" + std::to_string(::getpid()) + ".el"))
          .string();
  if (!graph::WriteEdgeListFile(g, path).ok()) {
    state.SkipWithError("cannot write the edge-list file");
    return;
  }
  for (auto _ : state) {
    auto read = graph::ReadEdgeListFile(path, /*directed=*/false);
    benchmark::DoNotOptimize(read);
  }
  std::filesystem::remove(path);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.num_edges()));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(graph::EdgeListFileBytes(g)));
}
BENCHMARK(BM_ReadEdgeListFile)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace granula

BENCHMARK_MAIN();
