#include "platforms/pregel_job.h"

#include <algorithm>
#include <span>

#include "common/thread_pool.h"

namespace granula::platform {

namespace {

using graph::VertexId;

// HDFS defaults, with replication clamped to the cluster size so small
// test clusters still work.
cluster::Hdfs::Options HdfsOptionsFor(
    const cluster::ClusterConfig& cluster_config) {
  cluster::Hdfs::Options options;
  // Scaled-down block size so the scaled input still splits into enough
  // blocks for every worker to load in parallel (real Giraph: 128 MiB
  // blocks on a ~15 GB dg1000 edge file).
  options.block_size = 256 * 1024;
  options.replication = std::min<uint32_t>(options.replication,
                                           cluster_config.num_nodes);
  return options;
}

}  // namespace

// The Pregel vertex view handed to algorithm programs. One instance per
// ParallelFor chunk: deliveries go to the chunk's message-store shard and
// all statistics accumulate chunk-locally, to be merged in chunk order
// after the parallel region (the determinism contract of ThreadPool).
// Chunks run on different threads and write their context per vertex and
// per message, so each context gets its own cache line.
class alignas(64) PregelJob::VertexContext
    : public algo::PregelVertexContext {
 public:
  VertexContext(PregelJob* job, uint64_t shard) : job_(job), shard_(shard) {}

  // Runs the program on `v` and updates its active flag.
  void Compute(VertexId v) {
    vertex_ = v;
    voted_halt_ = false;
    received_ += job_->messages_.CurrentDeliveryCount(v);
    job_->program_.Compute(*this, job_->messages_.CurrentMessages(v));
    ++computed_;
    uint8_t now_active = voted_halt_ ? 0 : 1;
    active_delta_ += static_cast<int64_t>(now_active) - job_->active_[v];
    job_->active_[v] = now_active;
  }
  uint64_t computed() const { return computed_; }
  uint64_t received() const { return received_; }
  uint64_t sent() const { return sent_; }
  int64_t active_delta() const { return active_delta_; }

  VertexId vertex_id() const override { return vertex_; }
  uint64_t superstep() const override { return job_->iteration_; }
  uint64_t num_vertices() const override {
    return job_->graph_.num_vertices();
  }
  double value() const override { return job_->values_[vertex_]; }
  void set_value(double v) override { job_->values_[vertex_] = v; }
  std::span<const VertexId> neighbors() const override {
    return job_->adjacency_.neighbors(vertex_);
  }
  void SendTo(VertexId target, double message) override {
    job_->messages_.Deliver(shard_, target, message);
    ++sent_;
  }
  void SendToAllNeighbors(double message) override {
    for (VertexId nbr : job_->adjacency_.neighbors(vertex_)) {
      SendTo(nbr, message);
    }
  }
  void VoteToHalt() override { voted_halt_ = true; }

 private:
  PregelJob* job_;
  uint64_t shard_;
  VertexId vertex_ = 0;
  bool voted_halt_ = false;
  uint64_t computed_ = 0;
  uint64_t received_ = 0;
  uint64_t sent_ = 0;
  int64_t active_delta_ = 0;
};

PregelJob::PregelJob(const graph::Graph& graph,
                     const algo::PregelProgram& program,
                     const cluster::ClusterConfig& cluster_config,
                     const JobConfig& job_config)
    : EngineJob(graph, cluster_config, job_config),
      program_(program),
      hdfs_(&cluster_, HdfsOptionsFor(cluster_config)),
      yarn_(&cluster_),
      adjacency_(graph.UndirectedCsr()),
      messages_(graph.num_vertices(), program.combiner()) {}

Status PregelJob::Setup() {
  const uint32_t workers = job_config_.num_workers;
  GRANULA_RETURN_IF_ERROR(hdfs_.CreateFile("/input/graph.e", input_bytes_));
  GRANULA_ASSIGN_OR_RETURN(partition_,
                           graph::PartitionEdgeCut(graph_, workers));
  const uint64_t n = graph_.num_vertices();
  values_.resize(n);
  active_.resize(n);
  partition_active_.assign(workers, 0);
  active_total_ = 0;
  for (VertexId v = 0; v < n; ++v) {
    values_[v] = program_.InitialValue(v, n);
    bool is_active = program_.InitiallyActive(v);
    active_[v] = is_active ? 1 : 0;
    if (is_active) {
      ++active_total_;
      ++partition_active_[partition_.owner[v]];
    }
  }
  // Per-partition counts of the merged messages let a partition with
  // nothing to compute skip its vertex scan.
  messages_.SetOwners(&partition_.owner, workers);
  return Status::OK();
}

uint64_t PregelJob::PartitionShards(uint32_t worker) const {
  const uint64_t size = partition_.partitions[worker].vertices.size();
  return ThreadPool::NumChunks(size, ChunkedGrain(size));
}

PregelJob::ComputeCounts PregelJob::ComputePartition(uint32_t worker,
                                                     uint64_t first_shard) {
  ComputeCounts total;
  if (partition_active_[worker] == 0 &&
      messages_.CurrentPartitionCount(worker) == 0) {
    return total;
  }
  const std::vector<VertexId>& verts = partition_.partitions[worker].vertices;
  const uint64_t grain = ChunkedGrain(verts.size());
  const uint64_t chunks = ThreadPool::NumChunks(verts.size(), grain);
  std::vector<VertexContext> ctxs;
  ctxs.reserve(chunks);
  for (uint64_t c = 0; c < chunks; ++c) {
    ctxs.emplace_back(this, first_shard + c);
  }
  // Chunks touch disjoint vertices (values, active flags) and deliver into
  // their own shards; the simulator is suspended, so no simulation state
  // moves underneath the loop.
  ParallelFor(0, verts.size(), grain,
              [&](uint64_t chunk, uint64_t cb, uint64_t ce) {
                for (uint64_t i = cb; i < ce; ++i) {
                  VertexId v = verts[i];
                  if (active_[v] == 0 && !messages_.HasCurrent(v)) continue;
                  ctxs[chunk].Compute(v);
                }
              });
  int64_t active_delta = 0;
  for (const VertexContext& ctx : ctxs) {
    total.computed += ctx.computed();
    total.received += ctx.received();
    total.sent += ctx.sent();
    active_delta += ctx.active_delta();
  }
  partition_active_[worker] = static_cast<uint64_t>(
      static_cast<int64_t>(partition_active_[worker]) + active_delta);
  active_total_ = static_cast<uint64_t>(
      static_cast<int64_t>(active_total_) + active_delta);
  return total;
}

}  // namespace granula::platform
