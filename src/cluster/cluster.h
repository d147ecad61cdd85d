#ifndef GRANULA_CLUSTER_CLUSTER_H_
#define GRANULA_CLUSTER_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "sim/resources.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace granula::cluster {

// One simulated machine: a multi-core CPU, a disk, and a full-duplex NIC.
class Node {
 public:
  Node(sim::Simulator* sim, uint32_t id, std::string hostname, int cores,
       double cpu_speed_factor, double disk_bytes_per_sec,
       double net_bytes_per_sec, SimTime net_latency)
      : id_(id),
        hostname_(std::move(hostname)),
        cpu_(sim, cores, cpu_speed_factor),
        disk_(sim, disk_bytes_per_sec, SimTime()),
        nic_out_(sim, net_bytes_per_sec, net_latency),
        nic_in_(sim, net_bytes_per_sec, SimTime()) {}

  uint32_t id() const { return id_; }
  const std::string& hostname() const { return hostname_; }

  sim::Cpu& cpu() { return cpu_; }
  const sim::Cpu& cpu() const { return cpu_; }
  sim::Channel& disk() { return disk_; }
  sim::Channel& nic_out() { return nic_out_; }
  sim::Channel& nic_in() { return nic_in_; }

 private:
  uint32_t id_;
  std::string hostname_;
  sim::Cpu cpu_;
  sim::Channel disk_;
  sim::Channel nic_out_;
  sim::Channel nic_in_;
};

// Dimensions of the simulated cluster. Defaults approximate a DAS5-like
// 8-node slice (16 cores, 10 Gbit/s interconnect, local spinning disks).
struct ClusterConfig {
  uint32_t num_nodes = 8;
  int cores_per_node = 16;
  double disk_bytes_per_sec = 150.0 * 1024 * 1024;   // 150 MiB/s
  double net_bytes_per_sec = 1250.0 * 1024 * 1024;   // 10 Gbit/s
  SimTime net_latency = SimTime::Micros(50);
  // Per-node CPU speed multipliers (empty = all 1.0). A factor of 0.5
  // makes the node take twice as long per unit of compute — used by the
  // failure-diagnosis experiments to inject a straggler.
  std::vector<double> node_speed_factors;
};

// A set of nodes joined by a full-bisection network. Transfers serialize on
// the sender's NIC and then incur the link latency; receiver-side contention
// is tracked in the receiver's nic_in meter but does not add delay (a
// deliberate simplification — the experiments here are disk- and CPU-bound).
class Cluster {
 public:
  Cluster(sim::Simulator* sim, const ClusterConfig& config);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  sim::Simulator* simulator() { return sim_; }
  const ClusterConfig& config() const { return config_; }
  uint32_t num_nodes() const { return static_cast<uint32_t>(nodes_.size()); }
  Node& node(uint32_t id) { return *nodes_[id]; }
  const Node& node(uint32_t id) const { return *nodes_[id]; }

  // Sends `bytes` from node `src` to node `dst`. Local sends are free.
  sim::Task<> Send(uint32_t src, uint32_t dst, uint64_t bytes);

  uint64_t network_bytes_sent() const { return network_bytes_sent_; }

 private:
  sim::Simulator* sim_;
  ClusterConfig config_;
  std::vector<std::unique_ptr<Node>> nodes_;
  uint64_t network_bytes_sent_ = 0;
};

}  // namespace granula::cluster

#endif  // GRANULA_CLUSTER_CLUSTER_H_
