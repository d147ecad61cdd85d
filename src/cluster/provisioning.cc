#include "cluster/provisioning.h"

namespace granula::cluster {

sim::Task<> YarnManager::LaunchApplicationMaster(uint32_t am_node) {
  sim::Simulator* sim = cluster_->simulator();
  co_await rm_queue_.Acquire();
  co_await sim->Delay(kRmHeartbeat);
  rm_queue_.Release();
  // The AM launch burns a little CPU on its node (JVM startup) but mostly
  // waits on classloading and registration.
  co_await cluster_->node(am_node).cpu().Run(kAppMasterLaunch * 0.15);
  co_await sim->Delay(kAppMasterLaunch * 0.85);
}

sim::Task<> YarnManager::AllocateContainers(uint32_t am_node, uint32_t count,
                                            std::vector<Container>* out) {
  sim::Simulator* sim = cluster_->simulator();
  std::vector<sim::ProcessHandle> launches;
  for (uint32_t i = 0; i < count; ++i) {
    // Each grant needs an RM heartbeat round (serialized at the RM).
    co_await rm_queue_.Acquire();
    co_await sim->Delay(kRmHeartbeat);
    rm_queue_.Release();

    Container c;
    c.node = (am_node + 1 + i) % cluster_->num_nodes();
    c.container_id = next_container_id_++;
    out->push_back(c);

    // Container (JVM) launch proceeds in parallel across nodes.
    launches.push_back(cluster_->simulator()->Spawn(
        [](Cluster* cluster, uint32_t node, SimTime launch) -> sim::Task<> {
          co_await cluster->node(node).cpu().Run(launch * 0.2);
          co_await cluster->simulator()->Delay(launch * 0.8);
        }(cluster_, c.node, kContainerLaunch)));
  }
  co_await sim::JoinAll(std::move(launches));
}

sim::Task<> YarnManager::Cleanup() {
  co_await cluster_->simulator()->Delay(kAppCleanup);
}

sim::Task<> MpiLauncher::LaunchRanks(uint32_t num_ranks) {
  std::vector<sim::ProcessHandle> spawns;
  for (uint32_t rank = 0; rank < num_ranks; ++rank) {
    uint32_t node = rank % cluster_->num_nodes();
    spawns.push_back(cluster_->simulator()->Spawn(
        [](Cluster* cluster, uint32_t n, SimTime spawn) -> sim::Task<> {
          co_await cluster->simulator()->Delay(spawn);
          co_await cluster->node(n).cpu().Run(spawn * 0.3);
        }(cluster_, node, kSshSpawn)));
  }
  co_await sim::JoinAll(std::move(spawns));
  co_await cluster_->simulator()->Delay(kMpiInit);
}

sim::Task<> MpiLauncher::Finalize() {
  co_await cluster_->simulator()->Delay(kFinalize);
}

sim::Task<> ZooKeeper::Op(uint32_t client) {
  ++operations_;
  co_await cluster_->Send(client, server_node_, 512);
  co_await cluster_->simulator()->Delay(kOpLatency);
  co_await cluster_->Send(server_node_, client, 512);
}

}  // namespace granula::cluster
