#include "platforms/graphmat.h"

#include <algorithm>

#include "cluster/provisioning.h"
#include "cluster/storage.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "graph/partition.h"
#include "platforms/gas_job.h"

namespace granula::platform {

namespace {

using core::OpId;
using graph::VertexId;

class GraphMatJob : public GasJob {
 public:
  GraphMatJob(const GraphMatCostModel& cost, const graph::Graph& graph,
              const algo::GasProgram& program,
              const cluster::ClusterConfig& cluster_config,
              const JobConfig& job_config)
      : GasJob(graph, program, cluster_config, job_config, "Rank"),
        cost_(cost),
        sharedfs_(&cluster_, /*server_node=*/0),
        mpi_(&cluster_),
        adjacency_(graph.UndirectedCsr()) {}

 private:
  const char* JobName() const override { return "GraphMatJob"; }

  Status Setup() override {
    GRANULA_RETURN_IF_ERROR(
        sharedfs_.CreateFile("/data/graph.e", input_bytes_));
    // Row partitioning: the matrix row of vertex v lives on its owner.
    GRANULA_ASSIGN_OR_RETURN(
        partition_, graph::PartitionEdgeCut(graph_, job_config_.num_workers));
    return Status::OK();
  }

  sim::Task<> RunStartup(OpId root) override {
    OpId startup = StartJobOperation(root, core::ops::kStartup);
    OpId launch = logger_.StartOperation(startup, "Mpi", "mpirun",
                                         "LaunchRanks", "LaunchRanks");
    co_await mpi_.LaunchRanks(job_config_.num_workers);
    logger_.EndOperation(launch);
    logger_.EndOperation(startup);
  }

  sim::Task<> RunLoadGraph(OpId root) override {
    OpId load = StartJobOperation(root, core::ops::kLoadGraph);
    co_await ForEachWorker(
        [this, load](uint32_t rank) { return RankLoad(load, rank); });
    logger_.EndOperation(load);
  }

  sim::Task<> RankLoad(OpId parent, uint32_t rank) {
    OpId op = logger_.StartOperation(
        parent, "Rank", WorkerActor(rank), "ReadSlice",
        StrFormat("ReadSlice-%u", rank));
    // Parallel slice reads: the shared server's disk still serializes the
    // transfers, but parsing proceeds concurrently on every rank — much
    // better than PowerGraph's one-reader design, though worse than
    // Giraph's data-local HDFS blocks.
    uint64_t my_bytes = input_bytes_ / job_config_.num_workers;
    // Transient storage errors: the rank retries its slice read in place;
    // each dead read is a FailedAttempt child of ReadSlice.
    if (!co_await RetryLoad(op, "Rank", WorkerActor(rank),
                            StrFormat("FailedAttempt-load-%u-", rank),
                            [this, rank](uint32_t retry) {
                              return injector_.StorageFault(rank, retry);
                            })) {
      logger_.EndOperation(op);
      co_return;
    }
    co_await sharedfs_.Read(rank, "/data/graph.e", my_bytes);
    co_await RunOnThreads(
        &sim_, &WorkerCpu(rank),
        cost_.parse_cpu_per_byte * static_cast<double>(my_bytes),
        job_config_.compute_threads);
    OpId build = logger_.StartOperation(
        op, "Rank", WorkerActor(rank), "BuildMatrix",
        StrFormat("BuildMatrix-%u", rank));
    uint64_t local_edges = partition_.partitions[rank].edges.size();
    co_await RunOnThreads(
        &sim_, &WorkerCpu(rank),
        cost_.matrix_build_per_edge * static_cast<double>(local_edges),
        job_config_.compute_threads);
    logger_.EndOperation(build);
    logger_.AddInfo(op, "BytesRead", Json(my_bytes));
    logger_.EndOperation(op);
  }

  sim::Task<> WorkerIteration(uint32_t rank) override {
    const auto& owned = partition_.partitions[rank].vertices;

    // --- SpMV: y_rows(owned) = A_slice (Sum,Gather)-product x(active).
    // The slice streams in full regardless of how sparse x is.
    OpId spmv_op = logger_.StartOperation(
        iteration_op_, "Rank", WorkerActor(rank), "Spmv",
        StrFormat("Spmv-%llu",
                  static_cast<unsigned long long>(iteration_)));
    // Host-parallel pull-style SpMV: each chunk folds into its own rows'
    // accumulators only, so chunks never contend and the fold order per
    // row is the fixed CSR neighbor order.
    uint64_t streamed_edges = 0;
    uint64_t active_nonzeros = 0;
    uint64_t active_owned = 0;
    const uint64_t grain = ChunkedGrain(owned.size());
    const uint64_t chunks = ThreadPool::NumChunks(owned.size(), grain);
    {
      struct SpmvStats {
        uint64_t streamed = 0;
        uint64_t nonzeros = 0;
        uint64_t active_owned = 0;
      };
      std::vector<SpmvStats> stats(chunks);
      ParallelFor(0, owned.size(), grain,
                  [&](uint64_t chunk, uint64_t cb, uint64_t ce) {
                    SpmvStats& mine = stats[chunk];
                    for (uint64_t i = cb; i < ce; ++i) {
                      VertexId v = owned[i];
                      if (active_[v] != 0) ++mine.active_owned;
                      mine.streamed += adjacency_.degree(v);
                      for (VertexId u : adjacency_.neighbors(v)) {
                        if (active_[u] == 0) continue;
                        ++mine.nonzeros;
                        Accumulate(v, program_.Gather(v, u, values_[u],
                                                      adjacency_.degree(u)));
                      }
                    }
                  });
      for (const SpmvStats& mine : stats) {
        streamed_edges += mine.streamed;
        active_nonzeros += mine.nonzeros;
        active_owned += mine.active_owned;
      }
    }
    co_await RunOnThreads(
        &sim_, &WorkerCpu(rank),
        cost_.spmv_per_edge * static_cast<double>(streamed_edges) +
            cost_.spmv_per_active_edge *
                static_cast<double>(active_nonzeros),
        job_config_.compute_threads);
    // Sparse-vector exchange: owned entries of x that other ranks' slices
    // reference (approximate: all active owned entries broadcast).
    uint64_t bytes = active_owned * cost_.bytes_per_nonzero;
    if (bytes > 0 && job_config_.num_workers > 1) {
      co_await cluster_.Send(rank, (rank + 1) % job_config_.num_workers,
                             bytes);
    }
    logger_.AddInfo(spmv_op, "StreamedEdges", Json(streamed_edges));
    logger_.AddInfo(spmv_op, "ActiveNonzeros", Json(active_nonzeros));
    logger_.EndOperation(spmv_op);
    co_await stage_barrier_.Arrive();

    // --- Apply.
    OpId apply_op = logger_.StartOperation(
        iteration_op_, "Rank", WorkerActor(rank), "Apply",
        StrFormat("Apply-%llu",
                  static_cast<unsigned long long>(iteration_)));
    uint64_t applies = ApplyChangedValues(owned, adjacency_).applies;
    co_await RunOnThreads(
        &sim_, &WorkerCpu(rank),
        cost_.apply_per_vertex * static_cast<double>(applies),
        job_config_.compute_threads);
    co_await sim_.Delay(cost_.iteration_overhead);
    logger_.AddInfo(apply_op, "Applies", Json(applies));
    logger_.EndOperation(apply_op);
  }

  sim::Task<> RunOffloadGraph(OpId root) override {
    OpId offload = StartJobOperation(root, core::ops::kOffloadGraph);
    co_await ForEachWorker(
        [this, offload](uint32_t rank) { return RankOffload(offload, rank); });
    logger_.EndOperation(offload);
  }

  sim::Task<> RankOffload(OpId parent, uint32_t rank) {
    OpId op = logger_.StartOperation(parent, "Rank", WorkerActor(rank),
                                     "WriteResults",
                                     StrFormat("WriteResults-%u", rank));
    uint64_t bytes = cost_.result_bytes_per_vertex *
                     partition_.partitions[rank].vertices.size();
    co_await RunOnThreads(
        &sim_, &WorkerCpu(rank),
        cost_.serialize_cpu_per_byte * static_cast<double>(bytes),
        job_config_.compute_threads);
    co_await sharedfs_.Write(rank, StrFormat("/data/gm-out-%u", rank), bytes);
    logger_.EndOperation(op);
  }

  sim::Task<> RunCleanup(OpId root) override {
    OpId cleanup = StartJobOperation(root, core::ops::kCleanup);
    OpId op = logger_.StartOperation(cleanup, "Mpi", "mpirun", "Finalize",
                                     "Finalize");
    co_await mpi_.Finalize();
    logger_.EndOperation(op);
    logger_.EndOperation(cleanup);
  }

  const GraphMatCostModel& cost_;
  cluster::SharedFs sharedfs_;
  cluster::MpiLauncher mpi_;

  // Inputs: the row partitioning and the matrix: the graph's shared
  // undirected CSR, whose rows are the slices and which gives each
  // vertex's degree.
  graph::EdgeCutResult partition_;
  const graph::Csr& adjacency_;
};

}  // namespace

Result<JobResult> GraphMatPlatform::Run(
    const graph::Graph& graph, const algo::AlgorithmSpec& spec,
    const cluster::ClusterConfig& cluster_config,
    const JobConfig& job_config) const {
  return RunEngineJob<GraphMatJob>(cost_, graph, spec, cluster_config,
                                  job_config);
}

}  // namespace granula::platform
