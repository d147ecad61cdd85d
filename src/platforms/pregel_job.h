#ifndef GRANULA_PLATFORMS_PREGEL_JOB_H_
#define GRANULA_PLATFORMS_PREGEL_JOB_H_

#include <cstdint>
#include <vector>

#include "algorithms/pregel.h"
#include "cluster/provisioning.h"
#include "cluster/storage.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "platforms/engine_job.h"
#include "platforms/message_store.h"

namespace granula::platform {

// The job core shared by the engines that run PregelPrograms (Giraph,
// Hadoop). Both provision workers through YARN, read the edge file from
// HDFS, hash-partition the vertices (edge cut) and run the same vertex
// program over the same vertex state; they differ only in execution
// structure (Giraph: long-lived workers and ZooKeeper barriers; Hadoop: one
// MapReduce job per superstep). The core holds the inputs, the vertex and
// message state, and the host-parallel compute loop over one partition. An
// engine supplies its phases and decides when and where each partition's
// Compute runs.
class PregelJob : public EngineJob {
 public:
  using Program = algo::PregelProgram;

  PregelJob(const graph::Graph& graph, const algo::PregelProgram& program,
            const cluster::ClusterConfig& cluster_config,
            const JobConfig& job_config);

 protected:
  // The edge file on HDFS, the partition and the initial vertex state.
  Status Setup() override;

  uint32_t WorkerNode(uint32_t worker) const {
    return containers_[worker].node;
  }
  sim::Cpu& WorkerCpu(uint32_t worker) {
    return cluster_.node(WorkerNode(worker)).cpu();
  }

  // Whether another superstep has a vertex to compute: an active vertex or
  // a delivered message. O(1): both are counted incrementally.
  bool AnyComputeCandidate() const {
    return active_total_ > 0 || messages_.current_total() > 0;
  }

  // Outbox shards ComputePartition(worker, ...) delivers into: one per
  // host chunk of the partition, fixed by its size alone.
  uint64_t PartitionShards(uint32_t worker) const;

  struct ComputeCounts {
    uint64_t computed = 0;
    uint64_t received = 0;
    uint64_t sent = 0;
  };
  // Runs the vertex program over every vertex of `worker`'s partition that
  // is active or received messages, host-parallel by chunk; chunk c
  // delivers into shard `first_shard + c`, reserved by the caller with
  // messages_.AddShards(PartitionShards(worker)). A partition with nothing
  // to compute is skipped without a scan. Counts merge in chunk order.
  ComputeCounts ComputePartition(uint32_t worker, uint64_t first_shard);

  const algo::PregelProgram& program_;

  cluster::Hdfs hdfs_;
  cluster::YarnManager yarn_;
  // Worker w runs in containers_[w].
  std::vector<cluster::YarnManager::Container> containers_;

  graph::EdgeCutResult partition_;
  // The graph's shared undirected adjacency; every worker consults only
  // its owned vertices.
  const graph::Csr& adjacency_;
  std::vector<uint8_t> active_;
  // Live counts of active vertices, total and per partition, updated with
  // per-chunk deltas instead of scanning all vertices.
  uint64_t active_total_ = 0;
  std::vector<uint64_t> partition_active_;
  MessageStore messages_;

 private:
  class VertexContext;
};

}  // namespace granula::platform

#endif  // GRANULA_PLATFORMS_PREGEL_JOB_H_
