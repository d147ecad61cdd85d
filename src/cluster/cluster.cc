#include "cluster/cluster.h"

#include "common/strings.h"

namespace granula::cluster {

namespace {

// Node i is named kHostnamePrefix followed by kFirstHostNumber + i; the
// paper's Giraph run used node339+.
constexpr char kHostnamePrefix[] = "node";
constexpr uint32_t kFirstHostNumber = 339;

}  // namespace

Cluster::Cluster(sim::Simulator* sim, const ClusterConfig& config)
    : sim_(sim), config_(config) {
  nodes_.reserve(config.num_nodes);
  for (uint32_t i = 0; i < config.num_nodes; ++i) {
    std::string hostname =
        StrFormat("%s%u", kHostnamePrefix, kFirstHostNumber + i);
    double speed = i < config.node_speed_factors.size()
                       ? config.node_speed_factors[i]
                       : 1.0;
    nodes_.push_back(std::make_unique<Node>(
        sim, i, std::move(hostname), config.cores_per_node, speed,
        config.disk_bytes_per_sec, config.net_bytes_per_sec,
        config.net_latency));
  }
}

sim::Task<> Cluster::Send(uint32_t src, uint32_t dst, uint64_t bytes) {
  if (src == dst || bytes == 0) co_return;
  network_bytes_sent_ += bytes;
  co_await nodes_[src]->nic_out().Transfer(bytes);
}

}  // namespace granula::cluster
