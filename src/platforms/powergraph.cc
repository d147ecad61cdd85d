#include "platforms/powergraph.h"

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

class PowerGraphJob : public GasJob {
 public:
  PowerGraphJob(const PowerGraphCostModel& cost, const graph::Graph& graph,
                const algo::GasProgram& program,
                const cluster::ClusterConfig& cluster_config,
                const JobConfig& job_config)
      : GasJob(graph, program, cluster_config, job_config, "Rank"),
        cost_(cost),
        sharedfs_(&cluster_, /*server_node=*/0),
        mpi_(&cluster_) {}

 private:
  const char* JobName() const override { return "PowerGraphJob"; }

  Status Setup() override {
    const uint32_t ranks = job_config_.num_workers;
    GRANULA_RETURN_IF_ERROR(
        sharedfs_.CreateFile("/data/graph.e", input_bytes_));

    if (job_config_.use_random_vertex_cut) {
      GRANULA_ASSIGN_OR_RETURN(
          partition_, graph::PartitionVertexCutRandom(graph_, ranks,
                                                      /*seed=*/1));
    } else {
      GRANULA_ASSIGN_OR_RETURN(
          partition_, graph::PartitionVertexCutGreedy(graph_, ranks));
    }

    const uint64_t n = graph_.num_vertices();
    degree_.assign(n, 0);
    for (const graph::Edge& e : graph_.edges()) {
      ++degree_[e.src];
      ++degree_[e.dst];
    }
    scatter_flag_.assign(n, 0);
    // Per-rank local adjacency over the rank's edge share, in CSR form
    // (replaces the per-edge scans in Gather/Scatter with pull-style loops
    // over replica vertices). Built on the host pool.
    local_adjacency_.resize(ranks);
    for (uint32_t r = 0; r < ranks; ++r) {
      local_adjacency_[r] = graph::Csr::BuildUndirected(
          n, partition_.partitions[r].edges);
    }
    return Status::OK();
  }

  // ------------------------------------------------------------ startup --
  sim::Task<> RunStartup(OpId root) override {
    OpId startup = StartJobOperation(root, core::ops::kStartup);
    OpId launch = logger_.StartOperation(startup, "Mpi", "mpirun",
                                         "LaunchRanks", "LaunchRanks");
    co_await mpi_.LaunchRanks(job_config_.num_workers);
    co_await ForEachWorker([this, launch](uint32_t rank) {
      return RankLocalStartup(launch, rank);
    });
    logger_.EndOperation(launch);
    logger_.EndOperation(startup);
  }

  sim::Task<> RankLocalStartup(OpId parent, uint32_t rank) {
    OpId op = logger_.StartOperation(
        parent, "Rank", WorkerActor(rank), "LocalStartup",
        StrFormat("LocalStartup-%u", rank));
    co_await sim_.Delay(SimTime::Millis(700));  // graphlab runtime init
    co_await WorkerCpu(rank).Run(SimTime::Millis(80));
    logger_.EndOperation(op);
  }

  // --------------------------------------------------------- load graph --
  sim::Task<> RunLoadGraph(OpId root) override {
    OpId load = StartJobOperation(root, core::ops::kLoadGraph);

    // Rank 0 reads and parses the entire input sequentially — the single
    // busy node of Fig. 7 while every other rank idles.
    OpId read = logger_.StartOperation(load, "Coordinator", WorkerActor(0),
                                       "ReadInput", "ReadInput");
    // Transient storage errors: the loader retries in place with backoff;
    // each dead read is a FailedAttempt child of ReadInput.
    if (!co_await RetryLoad(read, "Coordinator", WorkerActor(0),
                            "FailedAttempt-read-", [this](uint32_t retry) {
                              return injector_.StorageFault(0, retry);
                            })) {
      logger_.EndOperation(read);
      logger_.EndOperation(load);
      co_return;
    }
    co_await sharedfs_.ReadAll(0, "/data/graph.e");
    SimTime parse =
        cost_.parse_cpu_per_byte * static_cast<double>(input_bytes_);
    // PowerGraph's loader parses with a few threads on the one machine.
    co_await RunOnThreads(&sim_, &WorkerCpu(0), parse, 4);
    logger_.AddInfo(read, "BytesRead", Json(input_bytes_));
    logger_.EndOperation(read);

    // Distribute edge shares, then all ranks finalize in parallel — the
    // point near the end of LoadGraph where the other nodes wake up.
    co_await ForEachWorker(
        [this, load](uint32_t rank) { return RankFinalize(load, rank); });
    logger_.EndOperation(load);
  }

  sim::Task<> RankFinalize(OpId parent, uint32_t rank) {
    OpId op = logger_.StartOperation(
        parent, "Rank", WorkerActor(rank), "FinalizeGraph",
        StrFormat("FinalizeGraph-%u", rank));
    uint64_t local_edges = partition_.partitions[rank].edges.size();
    uint64_t share_bytes = graph_.num_edges() == 0
                               ? 0
                               : input_bytes_ * local_edges /
                                     graph_.num_edges();
    if (rank != 0) {
      co_await cluster_.Send(0, rank, share_bytes);
    }
    co_await RunOnThreads(
        &sim_, &WorkerCpu(rank),
        cost_.finalize_cpu_per_edge * static_cast<double>(local_edges),
        job_config_.compute_threads);
    logger_.AddInfo(op, "LocalEdges", Json(local_edges));
    logger_.EndOperation(op);
  }

  // ------------------------------------------------------ process graph --
  // Scatter flags are per-iteration: cleared between iterations.
  void OnIterationEnd() override {
    const uint64_t n = graph_.num_vertices();
    ParallelFor(0, n, ChunkedGrain(n), [&](uint64_t, uint64_t b, uint64_t e) {
      std::fill(scatter_flag_.begin() + b, scatter_flag_.begin() + e, 0);
    });
  }

  sim::Task<> WorkerIteration(uint32_t rank) override {
    const auto& part = partition_.partitions[rank];
    const graph::Csr& adj = local_adjacency_[rank];
    const std::vector<VertexId>& reps = part.replicas;
    const uint64_t grain = ChunkedGrain(reps.size());
    const uint64_t chunks = ThreadPool::NumChunks(reps.size(), grain);

    // --- Gather: fold contributions over local edges of active vertices.
    // Pull form over replica vertices — the same multiset of Gather calls
    // as the former per-edge loop, but each chunk writes only its own
    // vertices' accumulators, so the loop parallelizes race-free.
    OpId gather_op = logger_.StartOperation(
        iteration_op_, "Rank", WorkerActor(rank), "Gather",
        StrFormat("Gather-%llu",
                  static_cast<unsigned long long>(iteration_)));
    uint64_t gather_ops = 0;
    {
      std::vector<uint64_t> chunk_ops(chunks, 0);
      ParallelFor(0, reps.size(), grain,
                  [&](uint64_t chunk, uint64_t cb, uint64_t ce) {
                    uint64_t ops = 0;
                    for (uint64_t i = cb; i < ce; ++i) {
                      VertexId v = reps[i];
                      if (active_[v] == 0) continue;
                      for (VertexId other : adj.neighbors(v)) {
                        Accumulate(v, program_.Gather(v, other, values_[other],
                                                      degree_[other]));
                        ++ops;
                      }
                    }
                    chunk_ops[chunk] = ops;
                  });
      for (uint64_t ops : chunk_ops) gather_ops += ops;
    }
    co_await RunOnThreads(
        &sim_, &WorkerCpu(rank),
        cost_.gather_per_edge * static_cast<double>(gather_ops),
        job_config_.compute_threads);
    logger_.AddInfo(gather_op, "GatherOps", Json(gather_ops));
    logger_.EndOperation(gather_op);

    // --- Exchange: mirrors push partial accumulators to masters.
    OpId exchange_op = logger_.StartOperation(
        iteration_op_, "Rank", WorkerActor(rank), "Exchange",
        StrFormat("Exchange-%llu",
                  static_cast<unsigned long long>(iteration_)));
    // Flat per-master-rank byte counts; sends below go in ascending rank
    // order.
    std::vector<uint64_t> sync_bytes(job_config_.num_workers, 0);
    {
      std::vector<std::vector<uint64_t>> chunk_sync(chunks);
      ParallelFor(0, reps.size(), grain,
                  [&](uint64_t chunk, uint64_t cb, uint64_t ce) {
                    std::vector<uint64_t>& mine = chunk_sync[chunk];
                    mine.assign(job_config_.num_workers, 0);
                    for (uint64_t i = cb; i < ce; ++i) {
                      VertexId v = reps[i];
                      if (active_[v] != 0 && partition_.master[v] != rank) {
                        mine[partition_.master[v]] += cost_.bytes_per_sync;
                      }
                    }
                  });
      for (const std::vector<uint64_t>& mine : chunk_sync) {
        if (mine.empty()) continue;
        for (uint32_t t = 0; t < job_config_.num_workers; ++t) {
          sync_bytes[t] += mine[t];
        }
      }
    }
    for (uint32_t target = 0; target < job_config_.num_workers; ++target) {
      if (sync_bytes[target] == 0) continue;
      co_await cluster_.Send(rank, target, sync_bytes[target]);
    }
    co_await stage_barrier_.Arrive();  // all gathers complete
    logger_.EndOperation(exchange_op);

    // --- Apply: masters compute new values (then values sync to mirrors,
    // charged as the same per-replica sync volume).
    OpId apply_op = logger_.StartOperation(
        iteration_op_, "Rank", WorkerActor(rank), "Apply",
        StrFormat("Apply-%llu",
                  static_cast<unsigned long long>(iteration_)));
    uint64_t applies = 0;
    {
      std::vector<uint64_t> chunk_applies(chunks, 0);
      ParallelFor(0, reps.size(), grain,
                  [&](uint64_t chunk, uint64_t cb, uint64_t ce) {
                    uint64_t count = 0;
                    for (uint64_t i = cb; i < ce; ++i) {
                      VertexId v = reps[i];
                      if (partition_.master[v] != rank || active_[v] == 0) {
                        continue;
                      }
                      double acc =
                          acc_has_[v] != 0 ? acc_[v] : program_.GatherInit();
                      algo::GasProgram::ApplyResult r = program_.Apply(
                          v, values_[v], acc, graph_.num_vertices());
                      values_[v] = r.new_value;
                      scatter_flag_[v] = r.scatter ? 1 : 0;
                      ++count;
                    }
                    chunk_applies[chunk] = count;
                  });
      for (uint64_t count : chunk_applies) applies += count;
    }
    co_await RunOnThreads(
        &sim_, &WorkerCpu(rank),
        cost_.apply_per_vertex * static_cast<double>(applies),
        job_config_.compute_threads);
    for (uint32_t target = 0; target < job_config_.num_workers; ++target) {
      if (sync_bytes[target] == 0) continue;
      co_await cluster_.Send(target, rank, sync_bytes[target]);
    }
    co_await stage_barrier_.Arrive();  // all applies complete
    logger_.AddInfo(apply_op, "Applies", Json(applies));
    logger_.EndOperation(apply_op);

    // --- Scatter: activate neighbors along local edges. Pull form: each
    // vertex checks its incident arcs for flagged sources and activates
    // itself — the same activation set as the per-edge push loop, without
    // concurrent writes to next_active_.
    OpId scatter_op = logger_.StartOperation(
        iteration_op_, "Rank", WorkerActor(rank), "Scatter",
        StrFormat("Scatter-%llu",
                  static_cast<unsigned long long>(iteration_)));
    uint64_t scatter_ops = 0;
    {
      std::vector<uint64_t> chunk_ops(chunks, 0);
      std::vector<uint64_t> chunk_newly_active(chunks, 0);
      ParallelFor(0, reps.size(), grain,
                  [&](uint64_t chunk, uint64_t cb, uint64_t ce) {
                    uint64_t ops = 0;
                    uint64_t newly_active = 0;
                    for (uint64_t i = cb; i < ce; ++i) {
                      VertexId v = reps[i];
                      for (VertexId other : adj.neighbors(v)) {
                        if (scatter_flag_[other] == 0) continue;
                        ++ops;
                        if (next_active_[v] == 0 &&
                            program_.ScatterActivates(other, v,
                                                      values_[other],
                                                      values_[v])) {
                          next_active_[v] = 1;
                          ++newly_active;
                        }
                      }
                    }
                    chunk_ops[chunk] = ops;
                    chunk_newly_active[chunk] = newly_active;
                  });
      for (uint64_t c = 0; c < chunks; ++c) {
        scatter_ops += chunk_ops[c];
        next_active_count_ += chunk_newly_active[c];
      }
    }
    co_await RunOnThreads(
        &sim_, &WorkerCpu(rank),
        cost_.scatter_per_edge * static_cast<double>(scatter_ops),
        job_config_.compute_threads);
    co_await sim_.Delay(cost_.iteration_overhead);
    logger_.AddInfo(scatter_op, "ScatterOps", Json(scatter_ops));
    logger_.EndOperation(scatter_op);
  }

  // ----------------------------------------------------- offload graph --
  sim::Task<> RunOffloadGraph(OpId root) override {
    OpId offload = StartJobOperation(root, core::ops::kOffloadGraph);
    co_await ForEachWorker(
        [this, offload](uint32_t rank) { return RankOffload(offload, rank); });
    logger_.EndOperation(offload);
  }

  sim::Task<> RankOffload(OpId parent, uint32_t rank) {
    OpId op = logger_.StartOperation(
        parent, "Rank", WorkerActor(rank), "WriteResults",
        StrFormat("WriteResults-%u", rank));
    uint64_t masters = 0;
    for (VertexId v : partition_.partitions[rank].replicas) {
      if (partition_.master[v] == rank) ++masters;
    }
    uint64_t bytes = cost_.result_bytes_per_vertex * masters;
    co_await RunOnThreads(
        &sim_, &WorkerCpu(rank),
        cost_.serialize_cpu_per_byte * static_cast<double>(bytes),
        job_config_.compute_threads);
    co_await sharedfs_.Write(rank, StrFormat("/data/out-%u", rank), bytes);
    logger_.AddInfo(op, "BytesWritten", Json(bytes));
    logger_.EndOperation(op);
  }

  // ------------------------------------------------------------ cleanup --
  sim::Task<> RunCleanup(OpId root) override {
    OpId cleanup = StartJobOperation(root, core::ops::kCleanup);
    OpId op = logger_.StartOperation(cleanup, "Mpi", "mpirun", "Finalize",
                                     "Finalize");
    co_await mpi_.Finalize();
    co_await sim_.Delay(SimTime::Seconds(2.8));  // teardown + log flush
    logger_.EndOperation(op);
    logger_.EndOperation(cleanup);
  }

  // --------------------------------------------------------------- state --
  const PowerGraphCostModel& cost_;
  cluster::SharedFs sharedfs_;
  cluster::MpiLauncher mpi_;

  // Inputs: the vertex cut, per-rank CSR adjacency and the degree table.
  graph::VertexCutResult partition_;
  std::vector<graph::Csr> local_adjacency_;
  std::vector<uint64_t> degree_;
  // Per-iteration: vertices whose Apply asked to scatter.
  std::vector<uint8_t> scatter_flag_;
};

}  // namespace

Result<JobResult> PowerGraphPlatform::Run(
    const graph::Graph& graph, const algo::AlgorithmSpec& spec,
    const cluster::ClusterConfig& cluster_config,
    const JobConfig& job_config) const {
  return RunEngineJob<PowerGraphJob>(cost_, graph, spec, cluster_config,
                                    job_config);
}

}  // namespace granula::platform
