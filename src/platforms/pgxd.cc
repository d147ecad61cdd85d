#include "platforms/pgxd.h"

#include <algorithm>

#include "cluster/storage.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "graph/partition.h"
#include "platforms/gas_job.h"
#include "platforms/sharded_accumulator.h"

namespace granula::platform {

namespace {

using core::OpId;
using graph::VertexId;

class PgxdJob : public GasJob {
 public:
  PgxdJob(const PgxdCostModel& cost, PgxdDirection direction,
          const graph::Graph& graph, const algo::GasProgram& program,
          const cluster::ClusterConfig& cluster_config,
          const JobConfig& job_config)
      : GasJob(graph, program, cluster_config, job_config, "Node"),
        cost_(cost),
        direction_(direction),
        localfs_(&cluster_),
        accumulator_(graph.num_vertices()) {}

 private:
  const char* JobName() const override { return "PgxdJob"; }

  Status Setup() override {
    const uint32_t nodes = job_config_.num_workers;
    // Every node holds a pre-split local slice of the input.
    for (uint32_t node = 0; node < nodes; ++node) {
      GRANULA_RETURN_IF_ERROR(localfs_.CreateFile(
          node, StrFormat("/local/graph-%u.e", node),
          input_bytes_ / nodes));
    }
    GRANULA_ASSIGN_OR_RETURN(partition_,
                             graph::PartitionEdgeCut(graph_, nodes));
    // Undirected adjacency in CSR form, built on the host pool; vertex
    // degree comes from the CSR.
    adjacency_ = graph::Csr::BuildUndirected(graph_.num_vertices(),
                                             graph_.edges());
    return Status::OK();
  }

  sim::Task<> RunStartup(OpId root) override {
    OpId startup = StartJobOperation(root, core::ops::kStartup);
    OpId spawn = logger_.StartOperation(startup, "Native", "launcher",
                                        "SpawnProcesses", "SpawnProcesses");
    co_await ForEachWorker(
        [this, spawn](uint32_t node) { return NodeStartup(spawn, node); });
    logger_.EndOperation(spawn);
    logger_.EndOperation(startup);
  }

  sim::Task<> NodeStartup(OpId parent, uint32_t node) {
    OpId op = logger_.StartOperation(parent, "Process", WorkerActor(node),
                                     "LocalStartup",
                                     StrFormat("LocalStartup-%u", node));
    co_await sim_.Delay(cost_.process_spawn);
    co_await WorkerCpu(node).Run(cost_.process_spawn * 0.3);
    logger_.EndOperation(op);
  }

  sim::Task<> RunLoadGraph(OpId root) override {
    OpId load = StartJobOperation(root, core::ops::kLoadGraph);
    co_await ForEachWorker(
        [this, load](uint32_t node) { return NodeLoad(load, node); });
    logger_.EndOperation(load);
  }

  sim::Task<> NodeLoad(OpId parent, uint32_t node) {
    OpId op = logger_.StartOperation(
        parent, "Node", WorkerActor(node), "LoadLocalData",
        StrFormat("LoadLocalData-%u", node));
    // Transient storage errors: the node retries its local read in place;
    // each dead read is a FailedAttempt child of LoadLocalData.
    if (!co_await RetryLoad(op, "Node", WorkerActor(node),
                            StrFormat("FailedAttempt-load-%u-", node),
                            [this, node](uint32_t retry) {
                              return injector_.StorageFault(node, retry);
                            })) {
      logger_.EndOperation(op);
      co_return;
    }
    co_await localfs_.Read(node, StrFormat("/local/graph-%u.e", node));
    uint64_t my_bytes = input_bytes_ / job_config_.num_workers;
    co_await RunOnThreads(
        &sim_, &WorkerCpu(node),
        cost_.parse_cpu_per_byte * static_cast<double>(my_bytes),
        job_config_.compute_threads * 2);
    OpId csr = logger_.StartOperation(op, "Node", WorkerActor(node),
                                      "BuildCsr",
                                      StrFormat("BuildCsr-%u", node));
    uint64_t local_edges = partition_.partitions[node].edges.size();
    co_await RunOnThreads(
        &sim_, &WorkerCpu(node),
        cost_.csr_build_per_edge * static_cast<double>(local_edges),
        job_config_.compute_threads);
    logger_.EndOperation(csr);
    logger_.AddInfo(op, "BytesRead", Json(my_bytes));
    logger_.EndOperation(op);
  }

  bool ChoosePush(uint64_t frontier_edges) const {
    switch (direction_) {
      case PgxdDirection::kPushOnly:
        return true;
      case PgxdDirection::kPullOnly:
        return false;
      case PgxdDirection::kAuto:
        break;
    }
    // Direction-optimizing heuristic: push costs frontier_edges * push;
    // pull scans the full edge set at the cheaper pull rate.
    double push_cost = static_cast<double>(frontier_edges) *
                       cost_.push_per_edge.seconds();
    double pull_cost = static_cast<double>(2 * graph_.num_edges()) *
                       cost_.pull_per_edge.seconds();
    return push_cost <= pull_cost;
  }

  // The direction heuristic's input — the frontier's incident-edge count —
  // is maintained at Apply time instead of scanning all vertices each
  // iteration; the first iteration's frontier is the initial active set.
  void OnIterationStart() override {
    if (iteration_ == 0) {
      frontier_edges_ = 0;
      for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
        if (active_[v] != 0) frontier_edges_ += adjacency_.degree(v);
      }
    }
    push_mode_ = ChoosePush(frontier_edges_);
    logger_.AddInfo(iteration_op_, "Direction",
                    Json(push_mode_ ? "push" : "pull"));
    logger_.AddInfo(iteration_op_, "FrontierEdges", Json(frontier_edges_));
  }

  void OnIterationEnd() override {
    if (program_.always_active()) {
      frontier_edges_ = active_count_ > 0 ? adjacency_.num_arcs() : 0;
    } else {
      frontier_edges_ = next_frontier_edges_;
    }
    next_frontier_edges_ = 0;
  }

  sim::Task<> WorkerIteration(uint32_t node) override {
    const auto& owned = partition_.partitions[node].vertices;
    const uint64_t grain = ChunkedGrain(owned.size());
    const uint64_t chunks = ThreadPool::NumChunks(owned.size(), grain);

    // --- Traverse (push or pull). Both directions compute the same
    // accumulators — contributions flow from active vertices to their
    // neighbors — but touch different amounts of memory.
    uint64_t edge_ops = 0;
    uint64_t remote_updates = 0;
    OpId traverse_op;
    if (push_mode_) {
      traverse_op = logger_.StartOperation(
          iteration_op_, "Node", WorkerActor(node), "Push",
          StrFormat("Push-%llu",
                    static_cast<unsigned long long>(iteration_)));
      // Push writes accumulators of arbitrary targets, so chunks emit into
      // their own accumulator shards; the merge below folds them in chunk
      // order — the order the sequential loop would have used.
      const uint64_t first_shard = accumulator_.AddShards(chunks);
      {
        std::vector<uint64_t> chunk_ops(chunks, 0);
        std::vector<uint64_t> chunk_remote(chunks, 0);
        ParallelFor(0, owned.size(), grain,
                    [&](uint64_t chunk, uint64_t cb, uint64_t ce) {
                      uint64_t ops = 0;
                      uint64_t remote = 0;
                      const uint64_t shard = first_shard + chunk;
                      for (uint64_t i = cb; i < ce; ++i) {
                        VertexId v = owned[i];
                        if (active_[v] == 0) continue;
                        for (VertexId u : adjacency_.neighbors(v)) {
                          accumulator_.Emit(
                              shard, u,
                              program_.Gather(u, v, values_[v],
                                              adjacency_.degree(v)));
                          ++ops;
                          if (partition_.owner[u] != node) ++remote;
                        }
                      }
                      chunk_ops[chunk] = ops;
                      chunk_remote[chunk] = remote;
                    });
        for (uint64_t c = 0; c < chunks; ++c) {
          edge_ops += chunk_ops[c];
          remote_updates += chunk_remote[c];
        }
      }
      accumulator_.MergeInto(&acc_, &acc_has_, [this](double a, double b) {
        return program_.Sum(a, b);
      });
      co_await RunOnThreads(
          &sim_, &WorkerCpu(node),
          cost_.push_per_edge * static_cast<double>(edge_ops),
          job_config_.compute_threads);
    } else {
      traverse_op = logger_.StartOperation(
          iteration_op_, "Node", WorkerActor(node), "Pull",
          StrFormat("Pull-%llu",
                    static_cast<unsigned long long>(iteration_)));
      // Pull accumulates into the scanning vertex itself, so chunks write
      // disjoint accumulators and no sharding is needed.
      {
        std::vector<uint64_t> chunk_ops(chunks, 0);
        std::vector<uint64_t> chunk_remote(chunks, 0);
        ParallelFor(0, owned.size(), grain,
                    [&](uint64_t chunk, uint64_t cb, uint64_t ce) {
                      uint64_t ops = 0;
                      uint64_t remote = 0;
                      for (uint64_t i = cb; i < ce; ++i) {
                        VertexId v = owned[i];
                        for (VertexId u : adjacency_.neighbors(v)) {
                          ++ops;  // the pull scan reads every incident edge
                          if (active_[u] == 0) continue;
                          Accumulate(v, program_.Gather(v, u, values_[u],
                                                        adjacency_.degree(u)));
                          if (partition_.owner[u] != node) ++remote;
                        }
                      }
                      chunk_ops[chunk] = ops;
                      chunk_remote[chunk] = remote;
                    });
        for (uint64_t c = 0; c < chunks; ++c) {
          edge_ops += chunk_ops[c];
          remote_updates += chunk_remote[c];
        }
      }
      co_await RunOnThreads(
          &sim_, &WorkerCpu(node),
          cost_.pull_per_edge * static_cast<double>(edge_ops),
          job_config_.compute_threads);
    }
    // Cross-partition updates/reads cost network bytes.
    uint64_t bytes = remote_updates * cost_.bytes_per_update;
    if (bytes > 0) {
      co_await cluster_.Send(node,
                             (node + 1) % job_config_.num_workers, bytes);
    }
    logger_.AddInfo(traverse_op, "EdgeOps", Json(edge_ops));
    logger_.EndOperation(traverse_op);
    co_await stage_barrier_.Arrive();

    // --- Apply on owned vertices; activation = value changed.
    OpId apply_op = logger_.StartOperation(
        iteration_op_, "Node", WorkerActor(node), "Apply",
        StrFormat("Apply-%llu",
                  static_cast<unsigned long long>(iteration_)));
    ApplyCounts counts = ApplyChangedValues(owned, adjacency_);
    next_frontier_edges_ += counts.activated_degree;
    uint64_t applies = counts.applies;
    co_await RunOnThreads(
        &sim_, &WorkerCpu(node),
        cost_.apply_per_vertex * static_cast<double>(applies),
        job_config_.compute_threads);
    co_await sim_.Delay(cost_.iteration_overhead);
    logger_.AddInfo(apply_op, "Applies", Json(applies));
    logger_.EndOperation(apply_op);
  }

  sim::Task<> RunOffloadGraph(OpId root) override {
    OpId offload = StartJobOperation(root, core::ops::kOffloadGraph);
    co_await ForEachWorker(
        [this, offload](uint32_t node) { return NodeOffload(offload, node); });
    logger_.EndOperation(offload);
  }

  sim::Task<> NodeOffload(OpId parent, uint32_t node) {
    OpId op = logger_.StartOperation(parent, "Node", WorkerActor(node),
                                     "WriteLocal",
                                     StrFormat("WriteLocal-%u", node));
    uint64_t bytes = cost_.result_bytes_per_vertex *
                     partition_.partitions[node].vertices.size();
    co_await RunOnThreads(
        &sim_, &WorkerCpu(node),
        cost_.serialize_cpu_per_byte * static_cast<double>(bytes),
        job_config_.compute_threads);
    co_await localfs_.Write(node, StrFormat("/local/out-%u", node), bytes);
    logger_.EndOperation(op);
  }

  sim::Task<> RunCleanup(OpId root) override {
    OpId cleanup = StartJobOperation(root, core::ops::kCleanup);
    OpId op = logger_.StartOperation(cleanup, "Native", "launcher",
                                     "Teardown", "Teardown");
    co_await sim_.Delay(SimTime::Millis(300));
    logger_.EndOperation(op);
    logger_.EndOperation(cleanup);
  }

  const PgxdCostModel& cost_;
  PgxdDirection direction_;
  cluster::LocalFs localfs_;
  ShardedAccumulator accumulator_;

  // Inputs: the edge-cut partitioning and the undirected CSR.
  graph::EdgeCutResult partition_;
  graph::Csr adjacency_;
  // The current and next frontiers' incident-edge counts, and the
  // direction chosen for the current iteration.
  uint64_t frontier_edges_ = 0;
  uint64_t next_frontier_edges_ = 0;
  bool push_mode_ = true;
};

}  // namespace

Result<JobResult> PgxdPlatform::Run(
    const graph::Graph& graph, const algo::AlgorithmSpec& spec,
    const cluster::ClusterConfig& cluster_config,
    const JobConfig& job_config) const {
  return RunEngineJob<PgxdJob>(cost_, graph, spec, cluster_config, job_config,
                              direction_);
}

}  // namespace granula::platform
