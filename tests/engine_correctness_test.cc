// Validates that the simulated Giraph (Pregel) and PowerGraph (GAS)
// engines compute exactly what the sequential reference implementations
// compute, across algorithms, graph shapes, and worker counts — the
// property that makes the performance experiments trustworthy.

#include <tuple>

#include <gtest/gtest.h>

#include "algorithms/reference.h"
#include "graph/generators.h"
#include "platforms/giraph.h"
#include "platforms/powergraph.h"

namespace granula::platform {
namespace {

using graph::Graph;

struct GraphCase {
  const char* name;
  Graph graph;
};

std::vector<GraphCase> GraphCases() {
  std::vector<GraphCase> cases;
  cases.push_back({"path", graph::MakePath(50)});
  cases.push_back({"star", graph::MakeStar(64)});
  cases.push_back({"binary_tree", graph::MakeBinaryTree(63)});
  cases.push_back({"grid", graph::MakeGrid(8, 8)});
  cases.push_back({"two_components",
                   *Graph::Create(40,
                                  []() {
                                    std::vector<graph::Edge> edges;
                                    for (uint64_t v = 0; v + 1 < 20; ++v) {
                                      edges.push_back({v, v + 1});
                                    }
                                    for (uint64_t v = 21; v + 1 < 40; ++v) {
                                      edges.push_back({v, v + 1});
                                    }
                                    return edges;
                                  }(),
                                  false)});
  graph::DatagenConfig datagen;
  datagen.num_vertices = 600;
  datagen.avg_degree = 8.0;
  datagen.seed = 99;
  cases.push_back({"datagen", *graph::GenerateDatagen(datagen)});
  cases.push_back({"uniform", *graph::GenerateUniform(300, 900, 7)});
  // Directed input: engines and references both traverse the undirected
  // view, so results must still agree.
  graph::RmatConfig rmat;
  rmat.scale = 9;
  rmat.edge_factor = 4.0;
  cases.push_back({"rmat_directed", *graph::GenerateRmat(rmat)});
  return cases;
}

cluster::ClusterConfig FastCluster() {
  cluster::ClusterConfig config;
  config.num_nodes = 4;
  return config;
}

JobConfig FastJob(uint32_t workers = 4) {
  JobConfig config;
  config.num_workers = workers;
  return config;
}

// Cheap cost models keep virtual times small (irrelevant to correctness).
GiraphCostModel CheapGiraphCosts() {
  GiraphCostModel cost;
  cost.parse_cpu_per_byte = SimTime::Nanos(10);
  cost.compute_per_vertex = SimTime::Nanos(100);
  cost.compute_per_message = SimTime::Nanos(50);
  return cost;
}

PowerGraphCostModel CheapPowerGraphCosts() {
  PowerGraphCostModel cost;
  cost.parse_cpu_per_byte = SimTime::Nanos(10);
  cost.finalize_cpu_per_edge = SimTime::Nanos(50);
  return cost;
}

class EngineVsReference
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

algo::AlgorithmSpec SpecFor(algo::AlgorithmId id) {
  algo::AlgorithmSpec spec;
  spec.id = id;
  spec.source = 0;
  spec.max_iterations = 6;
  return spec;
}

constexpr algo::AlgorithmId kAlgorithms[] = {
    algo::AlgorithmId::kBfs, algo::AlgorithmId::kSssp,
    algo::AlgorithmId::kWcc, algo::AlgorithmId::kPageRank,
    algo::AlgorithmId::kCdlp};

TEST_P(EngineVsReference, GiraphMatchesReference) {
  auto [algo_index, case_index] = GetParam();
  algo::AlgorithmId id = kAlgorithms[algo_index];
  GraphCase gcase = GraphCases()[static_cast<size_t>(case_index)];
  algo::AlgorithmSpec spec = SpecFor(id);

  auto expected = algo::RunReference(gcase.graph, spec);
  ASSERT_TRUE(expected.ok());

  GiraphPlatform giraph(CheapGiraphCosts());
  auto result = giraph.Run(gcase.graph, spec, FastCluster(), FastJob());
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->vertex_values.size(), expected->size());
  for (size_t v = 0; v < expected->size(); ++v) {
    if (id == algo::AlgorithmId::kPageRank) {
      EXPECT_NEAR(result->vertex_values[v], (*expected)[v], 1e-9)
          << gcase.name << " vertex " << v;
    } else {
      EXPECT_DOUBLE_EQ(result->vertex_values[v], (*expected)[v])
          << gcase.name << " vertex " << v;
    }
  }
}

TEST_P(EngineVsReference, PowerGraphMatchesReference) {
  auto [algo_index, case_index] = GetParam();
  algo::AlgorithmId id = kAlgorithms[algo_index];
  if (id == algo::AlgorithmId::kCdlp) {
    GTEST_SKIP() << "CDLP has no scalar GAS formulation (documented)";
  }
  GraphCase gcase = GraphCases()[static_cast<size_t>(case_index)];
  algo::AlgorithmSpec spec = SpecFor(id);

  auto expected = algo::RunReference(gcase.graph, spec);
  ASSERT_TRUE(expected.ok());

  PowerGraphPlatform powergraph(CheapPowerGraphCosts());
  auto result = powergraph.Run(gcase.graph, spec, FastCluster(), FastJob());
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->vertex_values.size(), expected->size());
  for (size_t v = 0; v < expected->size(); ++v) {
    if (id == algo::AlgorithmId::kPageRank) {
      EXPECT_NEAR(result->vertex_values[v], (*expected)[v], 1e-9)
          << gcase.name << " vertex " << v;
    } else {
      EXPECT_DOUBLE_EQ(result->vertex_values[v], (*expected)[v])
          << gcase.name << " vertex " << v;
    }
  }
}

std::string EngineCaseName(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  static const char* kAlgoNames[] = {"Bfs", "Sssp", "Wcc", "PageRank",
                                     "Cdlp"};
  static const char* kGraphNames[] = {"Path",          "Star",
                                      "BinaryTree",    "Grid",
                                      "TwoComponents", "Datagen",
                                      "Uniform",       "RmatDirected"};
  return std::string(kAlgoNames[std::get<0>(info.param)]) + "_" +
         kGraphNames[std::get<1>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAllGraphs, EngineVsReference,
    ::testing::Combine(::testing::Range(0, 5), ::testing::Range(0, 8)),
    EngineCaseName);

// Worker-count sweep: the distributed answer must not depend on the
// partitioning degree.
class WorkerCountSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(WorkerCountSweep, GiraphBfsInvariantToWorkers) {
  uint32_t workers = GetParam();
  graph::DatagenConfig datagen;
  datagen.num_vertices = 400;
  datagen.avg_degree = 6.0;
  datagen.seed = 17;
  auto g = graph::GenerateDatagen(datagen);
  ASSERT_TRUE(g.ok());
  algo::AlgorithmSpec spec = SpecFor(algo::AlgorithmId::kBfs);
  auto expected = algo::ReferenceBfs(*g, 0);

  cluster::ClusterConfig cc = FastCluster();
  cc.num_nodes = std::max(workers, 2u);
  GiraphPlatform giraph(CheapGiraphCosts());
  auto result = giraph.Run(*g, spec, cc, FastJob(workers));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->vertex_values, expected);
}

TEST_P(WorkerCountSweep, PowerGraphWccInvariantToWorkers) {
  uint32_t workers = GetParam();
  auto g = graph::GenerateUniform(300, 600, 23);
  ASSERT_TRUE(g.ok());
  algo::AlgorithmSpec spec = SpecFor(algo::AlgorithmId::kWcc);
  auto expected = algo::ReferenceWcc(*g);

  cluster::ClusterConfig cc = FastCluster();
  cc.num_nodes = std::max(workers, 2u);
  PowerGraphPlatform powergraph(CheapPowerGraphCosts());
  auto result = powergraph.Run(*g, spec, cc, FastJob(workers));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->vertex_values, expected);
}

INSTANTIATE_TEST_SUITE_P(OneToEight, WorkerCountSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u));

TEST(EngineValidationTest, RejectsBadWorkerCounts) {
  Graph g = graph::MakePath(10);
  algo::AlgorithmSpec spec = SpecFor(algo::AlgorithmId::kBfs);
  GiraphPlatform giraph;
  EXPECT_FALSE(giraph.Run(g, spec, FastCluster(), FastJob(0)).ok());
  EXPECT_FALSE(giraph.Run(g, spec, FastCluster(), FastJob(99)).ok());
  PowerGraphPlatform powergraph;
  EXPECT_FALSE(powergraph.Run(g, spec, FastCluster(), FastJob(0)).ok());
}

TEST(EngineValidationTest, LccRejectedByBothEngines) {
  Graph g = graph::MakePath(10);
  algo::AlgorithmSpec spec = SpecFor(algo::AlgorithmId::kLcc);
  EXPECT_EQ(GiraphPlatform().Run(g, spec, FastCluster(), FastJob())
                .status()
                .code(),
            StatusCode::kUnimplemented);
  EXPECT_EQ(PowerGraphPlatform().Run(g, spec, FastCluster(), FastJob())
                .status()
                .code(),
            StatusCode::kUnimplemented);
}

TEST(EngineDeterminismTest, IdenticalRunsProduceIdenticalLogs) {
  graph::DatagenConfig datagen;
  datagen.num_vertices = 300;
  datagen.seed = 31;
  auto g = graph::GenerateDatagen(datagen);
  ASSERT_TRUE(g.ok());
  algo::AlgorithmSpec spec = SpecFor(algo::AlgorithmId::kBfs);

  GiraphPlatform giraph(CheapGiraphCosts());
  auto a = giraph.Run(*g, spec, FastCluster(), FastJob());
  auto b = giraph.Run(*g, spec, FastCluster(), FastJob());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->total_seconds, b->total_seconds);
  ASSERT_EQ(a->records.size(), b->records.size());
  for (size_t i = 0; i < a->records.size(); ++i) {
    EXPECT_EQ(a->records[i].time, b->records[i].time) << i;
    EXPECT_EQ(a->records[i].mission_id, b->records[i].mission_id) << i;
  }
  EXPECT_EQ(a->environment.size(), b->environment.size());
}

TEST(EngineStatsTest, BfsSuperstepCountMatchesEccentricity) {
  Graph g = graph::MakePath(12);  // eccentricity 11 from vertex 0
  algo::AlgorithmSpec spec = SpecFor(algo::AlgorithmId::kBfs);
  GiraphPlatform giraph(CheapGiraphCosts());
  auto result = giraph.Run(g, spec, FastCluster(), FastJob());
  ASSERT_TRUE(result.ok());
  // Superstep s computes frontier at distance s; one trailing superstep
  // delivers the last (fruitless) messages.
  EXPECT_EQ(result->supersteps, 13u);
}

TEST(EngineStatsTest, MonitorAndNetworkPopulated) {
  graph::DatagenConfig datagen;
  datagen.num_vertices = 500;
  datagen.seed = 3;
  auto g = graph::GenerateDatagen(datagen);
  ASSERT_TRUE(g.ok());
  algo::AlgorithmSpec spec = SpecFor(algo::AlgorithmId::kBfs);
  GiraphPlatform giraph;  // default (calibrated) costs: long virtual run
  auto result = giraph.Run(*g, spec, FastCluster(), FastJob());
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->total_seconds, 1.0);
  EXPECT_FALSE(result->environment.empty());
  EXPECT_GT(result->network_bytes, 0u);
  EXPECT_FALSE(result->records.empty());
}

}  // namespace
}  // namespace granula::platform
