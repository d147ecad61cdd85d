#ifndef GRANULA_CLUSTER_PROVISIONING_H_
#define GRANULA_CLUSTER_PROVISIONING_H_

#include <cstdint>
#include <vector>

#include "cluster/cluster.h"
#include "common/result.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace granula::cluster {

// A YARN-like resource negotiator. Container allocation is deliberately
// slow: requests queue at the ResourceManager, each grant has scheduling
// latency, and each granted container pays a JVM-like launch cost. This is
// the mechanism behind Giraph's long, CPU-idle Startup phase (paper
// Sections 3.4 and 4.3).
class YarnManager {
 public:
  // allocation round trip
  static constexpr SimTime kRmHeartbeat = SimTime::Millis(600);
  // JVM + classpath
  static constexpr SimTime kContainerLaunch = SimTime::Seconds(3.5);
  static constexpr SimTime kAppMasterLaunch = SimTime::Seconds(4.0);
  static constexpr SimTime kAppCleanup = SimTime::Seconds(2.0);

  explicit YarnManager(Cluster* cluster)
      : cluster_(cluster), rm_queue_(cluster->simulator(), 1) {}

  struct Container {
    uint32_t node;
    uint32_t container_id;
  };

  // Submits an application: launches an ApplicationMaster on `am_node`.
  sim::Task<> LaunchApplicationMaster(uint32_t am_node);

  // Allocates `count` containers, one per node round-robin starting after
  // `am_node`. Out-parameter style keeps the coroutine return type simple.
  sim::Task<> AllocateContainers(uint32_t am_node, uint32_t count,
                                 std::vector<Container>* out);

  // Tears down the application (container release + RM bookkeeping).
  sim::Task<> Cleanup();

 private:
  Cluster* cluster_;
  sim::Semaphore rm_queue_;  // the RM handles one request at a time
  uint32_t next_container_id_ = 0;
};

// An MPI-like launcher (mpirun): near-instant process spawn on every node,
// plus one collective barrier for MPI_Init. PowerGraph's startup is cheap
// for exactly this reason.
class MpiLauncher {
 public:
  // per-rank process spawn
  static constexpr SimTime kSshSpawn = SimTime::Millis(600);
  // collective init
  static constexpr SimTime kMpiInit = SimTime::Millis(1600);
  static constexpr SimTime kFinalize = SimTime::Millis(1100);

  explicit MpiLauncher(Cluster* cluster) : cluster_(cluster) {}

  // Spawns one rank per node in [0, num_ranks) and runs MPI_Init.
  sim::Task<> LaunchRanks(uint32_t num_ranks);
  sim::Task<> Finalize();

 private:
  Cluster* cluster_;
};

// A ZooKeeper-like coordination service hosted on one node. Giraph uses it
// for worker registration and superstep barriers; every operation costs a
// round trip to the ZK node.
class ZooKeeper {
 public:
  // znode create/watch RTT
  static constexpr SimTime kOpLatency = SimTime::Millis(8);

  ZooKeeper(Cluster* cluster, uint32_t server_node)
      : cluster_(cluster), server_node_(server_node) {}

  uint32_t server_node() const { return server_node_; }
  uint64_t operations() const { return operations_; }

  // One synchronous znode operation from node `client`.
  sim::Task<> Op(uint32_t client);

 private:
  Cluster* cluster_;
  uint32_t server_node_;
  uint64_t operations_ = 0;
};

}  // namespace granula::cluster

#endif  // GRANULA_CLUSTER_PROVISIONING_H_
