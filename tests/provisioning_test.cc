#include "cluster/provisioning.h"

#include <gtest/gtest.h>

namespace granula::cluster {
namespace {

ClusterConfig TestConfig() {
  ClusterConfig config;
  config.num_nodes = 4;
  config.cores_per_node = 4;
  config.net_latency = SimTime();
  return config;
}

TEST(YarnTest, ContainerAllocationTakesHeartbeatsPlusLaunch) {
  sim::Simulator sim;
  Cluster cluster(&sim, TestConfig());
  YarnManager yarn(&cluster);

  std::vector<YarnManager::Container> containers;
  sim.Spawn([](YarnManager& y, std::vector<YarnManager::Container>& out)
                -> sim::Task<> {
    co_await y.AllocateContainers(0, 3, &out);
  }(yarn, containers));
  sim.Run();
  ASSERT_EQ(containers.size(), 3u);
  // 3 serialized heartbeats; the last container starts launching after
  // the third and takes one launch (launches overlap but are staggered).
  EXPECT_EQ(sim.Now(),
            YarnManager::kRmHeartbeat * 3 + YarnManager::kContainerLaunch);
  // Containers land on distinct nodes after the AM node.
  EXPECT_EQ(containers[0].node, 1u);
  EXPECT_EQ(containers[1].node, 2u);
  EXPECT_EQ(containers[2].node, 3u);
}

TEST(YarnTest, AllocationIsSlowerThanMpiLaunch) {
  sim::Simulator sim;
  Cluster cluster(&sim, TestConfig());
  YarnManager yarn(&cluster);

  std::vector<YarnManager::Container> containers;
  sim.Spawn([](YarnManager& y,
               std::vector<YarnManager::Container>& out) -> sim::Task<> {
    co_await y.LaunchApplicationMaster(0);
    co_await y.AllocateContainers(0, 4, &out);
  }(yarn, containers));
  sim.Run();
  double yarn_time = sim.Now().seconds();

  sim::Simulator sim2;
  Cluster cluster2(&sim2, TestConfig());
  MpiLauncher mpi2(&cluster2);
  sim2.Spawn([](MpiLauncher& m) -> sim::Task<> {
    co_await m.LaunchRanks(4);
  }(mpi2));
  sim2.Run();
  double mpi_time = sim2.Now().seconds();

  // The paper's Table 1 contrast: Yarn provisioning is several times
  // slower than mpirun (the full platform startups differ even more once
  // per-worker initialization is added on top).
  EXPECT_GT(yarn_time, 3.0 * mpi_time);
}

TEST(MpiTest, RanksSpawnInParallel) {
  sim::Simulator sim;
  Cluster cluster(&sim, TestConfig());
  MpiLauncher mpi(&cluster);
  sim.Spawn([](MpiLauncher& m) -> sim::Task<> {
    co_await m.LaunchRanks(4);
  }(mpi));
  sim.Run();
  // Parallel spawn (one spawn + 0.3 of it on the CPU) then init, far less
  // than four serialized spawns.
  EXPECT_LT(sim.Now(), MpiLauncher::kSshSpawn * 2 + MpiLauncher::kMpiInit);
  EXPECT_GE(sim.Now(), MpiLauncher::kSshSpawn + MpiLauncher::kMpiInit);
}

TEST(ZooKeeperTest, OpsCostLatencyAndCountUp) {
  sim::Simulator sim;
  Cluster cluster(&sim, TestConfig());
  ZooKeeper zk(&cluster, 0);
  sim.Spawn([](ZooKeeper& z) -> sim::Task<> {
    co_await z.Op(1);
    co_await z.Op(2);
  }(zk));
  sim.Run();
  EXPECT_EQ(zk.operations(), 2u);
  EXPECT_GE(sim.Now(), ZooKeeper::kOpLatency * 2);
}

}  // namespace
}  // namespace granula::cluster
