#include "graph/graph.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"

namespace granula::graph {
namespace {

TEST(GraphTest, CreateValidatesEndpoints) {
  auto ok = Graph::Create(3, {{0, 1}, {1, 2}}, true);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->num_vertices(), 3u);
  EXPECT_EQ(ok->num_edges(), 2u);
  EXPECT_TRUE(ok->directed());
  EXPECT_EQ(ok->scale(), 5u);

  auto bad = Graph::Create(3, {{0, 3}}, true);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphTest, EmptyGraph) {
  auto g = Graph::Create(0, {}, false);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_vertices(), 0u);
  EXPECT_EQ(g->num_edges(), 0u);
}

TEST(CsrTest, DirectedOutNeighbors) {
  auto g = Graph::Create(4, {{0, 1}, {0, 2}, {2, 3}, {3, 0}}, true);
  Csr csr = Csr::Build(*g, /*out=*/true);
  EXPECT_EQ(csr.num_vertices(), 4u);
  EXPECT_EQ(csr.num_arcs(), 4u);
  ASSERT_EQ(csr.degree(0), 2u);
  EXPECT_EQ(csr.neighbors(0)[0], 1u);
  EXPECT_EQ(csr.neighbors(0)[1], 2u);
  EXPECT_EQ(csr.degree(1), 0u);
  EXPECT_EQ(csr.neighbors(3)[0], 0u);
}

TEST(CsrTest, DirectedInNeighbors) {
  auto g = Graph::Create(4, {{0, 1}, {0, 2}, {2, 3}, {3, 0}}, true);
  Csr csr = Csr::Build(*g, /*out=*/false);
  ASSERT_EQ(csr.degree(0), 1u);
  EXPECT_EQ(csr.neighbors(0)[0], 3u);
  ASSERT_EQ(csr.degree(1), 1u);
  EXPECT_EQ(csr.neighbors(1)[0], 0u);
}

TEST(CsrTest, UndirectedSymmetric) {
  auto g = Graph::Create(3, {{0, 1}, {1, 2}}, false);
  Csr csr = Csr::Build(*g);
  EXPECT_EQ(csr.num_arcs(), 4u);
  EXPECT_EQ(csr.degree(1), 2u);
  EXPECT_EQ(csr.neighbors(1)[0], 0u);
  EXPECT_EQ(csr.neighbors(1)[1], 2u);
}

TEST(CsrTest, ParallelEdgesKept) {
  auto g = Graph::Create(2, {{0, 1}, {0, 1}}, false);
  Csr csr = Csr::Build(*g);
  EXPECT_EQ(csr.degree(0), 2u);
  EXPECT_EQ(csr.degree(1), 2u);
}

// Sort-based reference for the counting build: every arc the build should
// emit, grouped by source with each list sorted.
enum class Arcs { kOut, kIn, kBoth };

std::vector<std::vector<VertexId>> ReferenceLists(uint64_t n,
                                                  std::span<const Edge> edges,
                                                  Arcs arcs) {
  std::vector<std::vector<VertexId>> lists(n);
  for (const Edge& e : edges) {
    if (arcs != Arcs::kIn) lists[e.src].push_back(e.dst);
    if (arcs != Arcs::kOut) lists[e.dst].push_back(e.src);
  }
  for (std::vector<VertexId>& list : lists) std::sort(list.begin(), list.end());
  return lists;
}

void ExpectMatchesReference(const Csr& csr,
                            const std::vector<std::vector<VertexId>>& lists) {
  ASSERT_EQ(csr.num_vertices(), lists.size());
  uint64_t arcs = 0;
  for (VertexId v = 0; v < lists.size(); ++v) {
    std::span<const VertexId> got = csr.neighbors(v);
    ASSERT_EQ(std::vector<VertexId>(got.begin(), got.end()), lists[v])
        << "vertex " << v;
    EXPECT_EQ(csr.degree(v), lists[v].size());
    arcs += lists[v].size();
  }
  EXPECT_EQ(csr.num_arcs(), arcs);
}

std::vector<Graph> ReferenceGraphs(bool directed) {
  std::vector<Graph> graphs;
  auto add = [&](const Graph& g) {
    graphs.push_back(*Graph::Create(g.num_vertices(), g.edges(), directed));
  };
  DatagenConfig datagen;
  datagen.num_vertices = 3000;
  datagen.avg_degree = 8.0;
  datagen.seed = 11;
  add(*GenerateDatagen(datagen));
  RmatConfig rmat;
  rmat.scale = 10;
  rmat.edge_factor = 8.0;
  rmat.seed = 5;
  add(*GenerateRmat(rmat));
  add(*GenerateUniform(500, 4000, 9));
  // Self-loops, parallel edges in both orientations, isolated vertices
  // (0, 4 and 7), and a last vertex with arcs.
  add(*Graph::Create(
      9, {{3, 3}, {1, 2}, {2, 1}, {1, 2}, {5, 8}, {8, 8}, {3, 1}, {6, 5}},
      directed));
  add(*Graph::Create(0, {}, directed));
  add(*Graph::Create(5, {}, directed));
  return graphs;
}

TEST(CsrTest, UndirectedBuildMatchesSortedReference) {
  for (const Graph& g : ReferenceGraphs(/*directed=*/false)) {
    SCOPED_TRACE(g.num_vertices());
    const auto lists = ReferenceLists(g.num_vertices(), g.edges(), Arcs::kBoth);
    ExpectMatchesReference(Csr::BuildUndirected(g.num_vertices(), g.edges()),
                           lists);
    ExpectMatchesReference(Csr::Build(g), lists);
    ExpectMatchesReference(g.UndirectedCsr(), lists);
  }
}

TEST(CsrTest, DirectedBuildsMatchSortedReference) {
  for (const Graph& g : ReferenceGraphs(/*directed=*/true)) {
    SCOPED_TRACE(g.num_vertices());
    const uint64_t n = g.num_vertices();
    ExpectMatchesReference(Csr::Build(g, /*out=*/true),
                           ReferenceLists(n, g.edges(), Arcs::kOut));
    ExpectMatchesReference(Csr::Build(g, /*out=*/false),
                           ReferenceLists(n, g.edges(), Arcs::kIn));
    // The engines traverse every graph undirected.
    ExpectMatchesReference(g.UndirectedCsr(),
                           ReferenceLists(n, g.edges(), Arcs::kBoth));
  }
}

TEST(CsrTest, UndirectedBuildOfAnEdgeSubset) {
  // PowerGraph builds per-rank adjacency from a slice of the edge list.
  auto g = GenerateUniform(400, 3000, 4);
  ASSERT_TRUE(g.ok());
  std::span<const Edge> slice(g->edges().data() + 700, 900);
  ExpectMatchesReference(Csr::BuildUndirected(400, slice),
                         ReferenceLists(400, slice, Arcs::kBoth));
}

TEST(SharedCsrTest, CopiesShareOneCsrAndFileSize) {
  auto g = GenerateUniform(300, 2000, 2);
  ASSERT_TRUE(g.ok());
  Graph copy = *g;
  EXPECT_EQ(&copy.UndirectedCsr(), &g->UndirectedCsr());
  EXPECT_EQ(&g->UndirectedCsr(), &g->UndirectedCsr());
  // A graph built from the same edges is a different graph with its own.
  auto rebuilt = Graph::Create(g->num_vertices(), g->edges(), false);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_NE(&rebuilt->UndirectedCsr(), &g->UndirectedCsr());
  uint64_t bytes = 0;
  for (const Edge& e : g->edges()) {
    bytes += std::to_string(e.src).size() + std::to_string(e.dst).size() + 2;
  }
  EXPECT_EQ(EdgeListFileBytes(*g), bytes);
  EXPECT_EQ(EdgeListFileBytes(copy), bytes);
}

TEST(SharedCsrTest, ConcurrentFirstCallsBuildOnce) {
  DatagenConfig config;
  config.num_vertices = 20000;
  config.avg_degree = 10.0;
  config.seed = 3;
  auto g = GenerateDatagen(config);
  ASSERT_TRUE(g.ok());
  constexpr int kThreads = 8;
  std::vector<const Csr*> seen(kThreads, nullptr);
  std::vector<const VertexId*> storage(kThreads, nullptr);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const Csr& csr = g->UndirectedCsr();
      seen[t] = &csr;
      storage[t] = csr.neighbors(0).data();
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();
  // One object, and its arc array was never replaced: a second build
  // would have moved a freshly allocated array into it after some thread
  // had already read the first one.
  const Csr& csr = g->UndirectedCsr();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], &csr);
    EXPECT_EQ(storage[t], csr.neighbors(0).data());
  }
  ExpectMatchesReference(
      csr, ReferenceLists(g->num_vertices(), g->edges(), Arcs::kBoth));
}

TEST(FileBytesTest, EdgeListBytesExact) {
  // "0 1\n" (4) + "10 100\n" (7).
  auto g = Graph::Create(101, {{0, 1}, {10, 100}}, true);
  EXPECT_EQ(EdgeListFileBytes(*g), 11u);
}

TEST(FileBytesTest, VertexListBytesExact) {
  // "0\n".."9\n" = 20, "10\n".."11\n" = 6.
  auto g = Graph::Create(12, {}, true);
  EXPECT_EQ(VertexListFileBytes(*g), 26u);
}

TEST(FileBytesTest, ScalesWithGraph) {
  auto small = GenerateUniform(100, 500, 1);
  auto large = GenerateUniform(100, 5000, 1);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_GT(EdgeListFileBytes(*large), 5 * EdgeListFileBytes(*small));
}

}  // namespace
}  // namespace granula::graph
