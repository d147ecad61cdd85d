#include "platforms/platform.h"
#include "platforms/registry.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "platforms/dispatch.h"
#include "sim/resources.h"

namespace granula::platform {
namespace {

TEST(RegistryTest, SevenPlatformsInPaperOrder) {
  const auto& registry = PlatformRegistry();
  ASSERT_EQ(registry.size(), 7u);
  EXPECT_EQ(registry[0].name, "Giraph");
  EXPECT_EQ(registry[1].name, "PowerGraph");
  EXPECT_EQ(registry[6].name, "Hadoop");
}

TEST(RegistryTest, CharacteristicsMatchTable1) {
  const auto& registry = PlatformRegistry();
  EXPECT_EQ(registry[0].programming_model, "Pregel");
  EXPECT_EQ(registry[0].provisioning, "Yarn");
  EXPECT_EQ(registry[0].file_system, "HDFS");
  EXPECT_EQ(registry[1].programming_model, "GAS");
  EXPECT_EQ(registry[1].language, "C++");
  EXPECT_FALSE(registry[4].distributed);  // OpenG
  EXPECT_FALSE(registry[5].distributed);  // TOTEM
}

TEST(RegistryTest, FiveEnginesImplemented) {
  int implemented = 0;
  for (const auto& p : PlatformRegistry()) {
    if (p.implemented_here) ++implemented;
  }
  EXPECT_EQ(implemented, 5);  // Giraph, PowerGraph, GraphMat, PGX.D, Hadoop
}

TEST(RegistryTest, TableRendersEveryRow) {
  std::string table = RenderPlatformTable();
  for (const auto& p : PlatformRegistry()) {
    EXPECT_NE(table.find(p.name), std::string::npos) << p.name;
  }
  EXPECT_NE(table.find("Provisioning"), std::string::npos);
}

TEST(RunOnThreadsTest, SplitsWorkAcrossCores) {
  sim::Simulator sim;
  sim::Cpu cpu(&sim, 8);
  sim.Spawn([](sim::Simulator& s, sim::Cpu& c) -> sim::Task<> {
    co_await RunOnThreads(&s, &c, SimTime::Seconds(8), 4);
  }(sim, cpu));
  sim.Run();
  EXPECT_DOUBLE_EQ(sim.Now().seconds(), 2.0);  // 8s over 4 threads
  EXPECT_DOUBLE_EQ(cpu.BusySeconds(), 8.0);
}

TEST(RunOnThreadsTest, ClampsToCoreCount) {
  sim::Simulator sim;
  sim::Cpu cpu(&sim, 2);
  sim.Spawn([](sim::Simulator& s, sim::Cpu& c) -> sim::Task<> {
    co_await RunOnThreads(&s, &c, SimTime::Seconds(8), 16);
  }(sim, cpu));
  sim.Run();
  // Clamped to 2 threads of 4s each.
  EXPECT_DOUBLE_EQ(sim.Now().seconds(), 4.0);
}

TEST(RunOnThreadsTest, ZeroWorkReturnsImmediately) {
  sim::Simulator sim;
  sim::Cpu cpu(&sim, 2);
  sim.Spawn([](sim::Simulator& s, sim::Cpu& c) -> sim::Task<> {
    co_await RunOnThreads(&s, &c, SimTime(), 4);
  }(sim, cpu));
  sim.Run();
  EXPECT_EQ(sim.Now(), SimTime());
}

TEST(CpuSpeedFactorTest, SlowCpuTakesLonger) {
  sim::Simulator sim;
  sim::Cpu fast(&sim, 1, 1.0);
  sim::Cpu slow(&sim, 1, 0.5);
  double fast_done = 0, slow_done = 0;
  sim.Spawn([](sim::Simulator& s, sim::Cpu& c, double& done) -> sim::Task<> {
    co_await c.Run(SimTime::Seconds(2));
    done = s.Now().seconds();
  }(sim, fast, fast_done));
  sim.Spawn([](sim::Simulator& s, sim::Cpu& c, double& done) -> sim::Task<> {
    co_await c.Run(SimTime::Seconds(2));
    done = s.Now().seconds();
  }(sim, slow, slow_done));
  sim.Run();
  EXPECT_DOUBLE_EQ(fast_done, 2.0);
  EXPECT_DOUBLE_EQ(slow_done, 4.0);
  // The slow node is busy longer: the monitor sees exactly that.
  EXPECT_DOUBLE_EQ(slow.BusySeconds(), 4.0);
}

TEST(ToEnvironmentRecordsTest, ConvertsAllFields) {
  std::vector<cluster::UtilizationSample> samples(1);
  samples[0].node = 3;
  samples[0].hostname = "node342";
  samples[0].time_seconds = 7.5;
  samples[0].cpu_seconds_per_second = 12.0;
  samples[0].net_bytes_per_second = 1000.0;
  samples[0].disk_bytes_per_second = 2000.0;
  auto records = ToEnvironmentRecords(samples);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].node, 3u);
  EXPECT_EQ(records[0].hostname, "node342");
  EXPECT_DOUBLE_EQ(records[0].time_seconds, 7.5);
  EXPECT_DOUBLE_EQ(records[0].cpu_seconds_per_second, 12.0);
  EXPECT_DOUBLE_EQ(records[0].net_bytes_per_second, 1000.0);
  EXPECT_DOUBLE_EQ(records[0].disk_bytes_per_second, 2000.0);
}

// The support matrix README documents, checked both ways: the up-front
// check agrees with what the engine does when actually asked to run.
TEST(SupportMatrixTest, CheckAgreesWithTheEnginesAndTheDocumentedMatrix) {
  auto g = graph::GenerateUniform(60, 180, 5);
  ASSERT_TRUE(g.ok()) << g.status();
  const std::string expected =
      "giraph:BFS,PageRank,WCC,SSSP,CDLP;"
      "powergraph:BFS,PageRank,WCC,SSSP;"
      "graphmat:BFS,PageRank,WCC,SSSP;"
      "pgxd:BFS,PageRank,WCC,SSSP;"
      "hadoop:BFS,PageRank,WCC,SSSP,CDLP;";
  std::string matrix;
  for (const std::string& name : ImplementedPlatformNames()) {
    std::string row;
    for (algo::AlgorithmId id :
         {algo::AlgorithmId::kBfs, algo::AlgorithmId::kPageRank,
          algo::AlgorithmId::kWcc, algo::AlgorithmId::kSssp,
          algo::AlgorithmId::kCdlp, algo::AlgorithmId::kLcc}) {
      algo::AlgorithmSpec spec;
      spec.id = id;
      spec.max_iterations = 2;
      JobConfig job;
      job.num_workers = 2;
      bool supported = CheckPlatformSupports(name, spec).ok();
      auto run = RunForPlatform(name, *g, spec, cluster::ClusterConfig{}, job);
      EXPECT_EQ(supported, run.ok())
          << name << "/" << algo::AlgorithmName(id) << ": " << run.status();
      if (supported) {
        row += (row.empty() ? "" : ",") + std::string(algo::AlgorithmName(id));
      }
    }
    matrix += name + ":" + row + ";";
  }
  EXPECT_EQ(matrix, expected);
  EXPECT_EQ(CheckPlatformSupports("spark", algo::AlgorithmSpec{}).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace granula::platform
