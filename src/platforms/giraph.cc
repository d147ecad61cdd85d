#include "platforms/giraph.h"

#include <algorithm>

#include "cluster/provisioning.h"
#include "cluster/storage.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "graph/partition.h"
#include "platforms/engine_job.h"
#include "platforms/message_store.h"
#include "sim/sync.h"

namespace granula::platform {

namespace {

using core::OpId;
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

// One full Giraph job on the shared harness. The class holds the
// cross-coroutine state (message store, barriers, checkpoint bookkeeping);
// the master drives supersteps and spawns per-worker coroutines per phase.
class GiraphJob : public EngineJob {
 public:
  using Program = algo::PregelProgram;

  GiraphJob(const GiraphCostModel& cost, const graph::Graph& graph,
            const algo::PregelProgram& program,
            const cluster::ClusterConfig& cluster_config,
            const JobConfig& job_config)
      : EngineJob(graph, cluster_config, job_config),
        cost_(cost),
        program_(program),
        hdfs_(&cluster_, HdfsOptionsFor(cluster_config)),
        yarn_(&cluster_, cluster::YarnManager::Options{}),
        zk_(&cluster_, /*server_node=*/0, cluster::ZooKeeper::Options{}),
        start_barrier_(&sim_, static_cast<int>(job_config.num_workers) + 1),
        end_barrier_(&sim_, static_cast<int>(job_config.num_workers) + 1),
        messages_(graph.num_vertices(), program.combiner()) {}

 private:
  const char* JobName() const override { return "GiraphJob"; }

  Status Setup() override {
    const uint32_t workers = job_config_.num_workers;
    // Input file on HDFS (what LoadGraph reads).
    GRANULA_RETURN_IF_ERROR(hdfs_.CreateFile("/input/graph.e", input_bytes_));

    // Partition (edge cut) and initialize algorithm state.
    GRANULA_ASSIGN_OR_RETURN(partition_,
                             graph::PartitionEdgeCut(graph_, workers));
    values_.resize(graph_.num_vertices());
    active_.resize(graph_.num_vertices());
    partition_active_.assign(workers, 0);
    active_total_ = 0;
    for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
      values_[v] = program_.InitialValue(v, graph_.num_vertices());
      bool is_active = program_.InitiallyActive(v);
      active_[v] = is_active ? 1 : 0;
      if (is_active) {
        ++active_total_;
        ++partition_active_[partition_.owner[v]];
      }
    }
    // Per-partition pending-message counts, maintained at Deliver time, let
    // the master and idle workers skip O(V) frontier scans.
    messages_.SetOwners(&partition_.owner, workers);
    // Undirected adjacency, shared by all workers (each consults only its
    // owned vertices). Built on the host pool.
    adjacency_ = graph::Csr::BuildUndirected(graph_.num_vertices(),
                                             graph_.edges());
    return Status::OK();
  }

  uint32_t WorkerNode(uint32_t w) const { return containers_[w].node; }
  sim::Cpu& WorkerCpu(uint32_t w) { return cluster_.node(WorkerNode(w)).cpu(); }

  // ------------------------------------------------------------ startup --
  sim::Task<> RunStartup(OpId root) override {
    OpId startup = StartJobOperation(root, core::ops::kStartup);

    OpId job_startup = logger_.StartOperation(startup, "Master", "Master-0",
                                              "JobStartup", "JobStartup");
    co_await sim_.Delay(SimTime::Millis(700));  // client submission RPC
    co_await yarn_.LaunchApplicationMaster(/*am_node=*/0);
    logger_.EndOperation(job_startup);

    OpId launch = logger_.StartOperation(startup, "Master", "Master-0",
                                         "LaunchWorkers", "LaunchWorkers");
    co_await yarn_.AllocateContainers(0, job_config_.num_workers,
                                      &containers_);
    co_await ForEachWorker(
        [this, launch](uint32_t w) { return WorkerLocalStartup(launch, w); });
    logger_.EndOperation(launch);
    logger_.EndOperation(startup);
  }

  sim::Task<> WorkerLocalStartup(OpId parent, uint32_t w) {
    OpId op = logger_.StartOperation(
        parent, "Worker", StrFormat("Worker-%u", w + 1), "LocalStartup",
        StrFormat("LocalStartup-%u", w + 1));
    // Worker registration and partition assignment via ZooKeeper.
    co_await zk_.Op(WorkerNode(w));
    co_await zk_.Op(WorkerNode(w));
    co_await sim_.Delay(SimTime::Millis(350));  // service init
    logger_.EndOperation(op);
  }

  // --------------------------------------------------------- load graph --
  sim::Task<> RunLoadGraph(OpId root) override {
    OpId load = StartJobOperation(root, core::ops::kLoadGraph);
    co_await ForEachWorker(
        [this, load](uint32_t w) { return WorkerLoad(load, w); });
    logger_.EndOperation(load);
  }

  sim::Task<> WorkerLoad(OpId parent, uint32_t w) {
    OpId op = logger_.StartOperation(
        parent, "Worker", StrFormat("Worker-%u", w + 1), "LoadHdfsData",
        StrFormat("LoadHdfsData-%u", w + 1));
    // Injected load faults (failed split reads / transient storage
    // errors): each failed attempt is a real child operation — a partial
    // read, the failure, and the retry backoff — before the load below
    // runs clean.
    if (!co_await RetryLoad(op, "Worker", StrFormat("Worker-%u", w + 1),
                            StrFormat("FailedAttempt-load-%u-", w + 1),
                            [this, w](uint32_t attempt) {
                              return injector_.LoadFault(w, attempt);
                            })) {
      logger_.EndOperation(op);
      co_return;
    }
    // Workers split the input by block index (Giraph input splits).
    auto blocks = hdfs_.GetBlocks("/input/graph.e");
    uint64_t my_bytes = 0;
    if (blocks.ok()) {
      for (const cluster::Hdfs::Block& block : *blocks) {
        if (block.index % job_config_.num_workers != w) continue;
        my_bytes += block.bytes;
        co_await hdfs_.ReadBlock(WorkerNode(w), block);
      }
    }
    logger_.AddInfo(op, "BytesRead", Json(my_bytes));

    // Parsing + vertex/edge object construction: the CPU-heavy part of
    // loading the paper observes in Fig. 6.
    OpId local = logger_.StartOperation(
        op, "Worker", StrFormat("Worker-%u", w + 1), "LocalLoad",
        StrFormat("LocalLoad-%u", w + 1));
    SimTime parse = cost_.parse_cpu_per_byte * static_cast<double>(my_bytes);
    // Input splits are parsed by every core of the node — loading is the
    // most CPU-intensive phase of the job (paper Fig. 6).
    co_await RunOnThreads(&sim_, &WorkerCpu(w), parse,
                          job_config_.compute_threads * 2);
    logger_.EndOperation(local);
    logger_.EndOperation(op);
  }

  // ------------------------------------------------------ process graph --
  // O(1): active vertices and merged deliveries are counted incrementally
  // (per-chunk deltas at compute time, per-partition counts at Deliver
  // time) instead of scanning all vertices each superstep.
  bool AnyComputeCandidate() const {
    return active_total_ > 0 || messages_.current_total() > 0;
  }

  sim::Task<> RunProcessGraph(OpId root) override {
    process_op_ = StartJobOperation(root, core::ops::kProcessGraph);
    std::vector<sim::ProcessHandle> loops;
    for (uint32_t w = 0; w < job_config_.num_workers; ++w) {
      loops.push_back(sim_.Spawn(WorkerProcessLoop(w)));
    }
    const sim::RetryPolicy& policy = injector_.policy();
    uint64_t next_checkpoint =
        injector_.enabled() && policy.checkpoint_interval > 0
            ? policy.checkpoint_interval
            : 0;
    uint32_t attempt = 0;  // failed attempts of the *current* superstep
    while (true) {
      uint64_t max_steps = program_.max_supersteps();
      if (!AnyComputeCandidate() ||
          (max_steps > 0 && iteration_ >= max_steps)) {
        process_done_ = true;
        co_await start_barrier_.Arrive();
        break;
      }
      // Periodic checkpoint (real Giraph: superstep-granularity snapshots
      // to HDFS). Only under a non-empty fault plan, so fault-free runs
      // stay byte-identical.
      if (next_checkpoint != 0 && iteration_ == next_checkpoint) {
        co_await RunCheckpoint();
        next_checkpoint += policy.checkpoint_interval;
      }
      // A doomed attempt: the victim worker dies `work_before_crash`
      // into the superstep and the master notices after the heartbeat
      // timeout. Workers stay parked at the start barrier, and no
      // algorithm state moves — the retry recomputes from scratch.
      if (const sim::FaultSpec* crash =
              injector_.enabled() ? injector_.CrashAt(iteration_, attempt)
                                  : nullptr) {
        co_await RunFailedSuperstep(*crash, attempt);
        ++attempt;
        if (attempt >= policy.max_attempts) {
          job_failed_ = true;
          process_done_ = true;
          co_await start_barrier_.Arrive();  // release workers to exit
          break;
        }
        co_await RunRestart(*crash, attempt);
        continue;  // retry the same superstep
      }
      SimTime step_began = sim_.Now();
      superstep_op_ = logger_.StartOperation(
          process_op_, "Master", "Master-0", "Superstep",
          StrFormat("Superstep-%llu",
                    static_cast<unsigned long long>(iteration_)));
      co_await start_barrier_.Arrive();  // release workers into superstep
      co_await end_barrier_.Arrive();    // wait for all workers
      logger_.EndOperation(superstep_op_);

      // Master-side coordination between supersteps.
      OpId sync = logger_.StartOperation(
          process_op_, "Master", "Master-0", "SyncZookeeper",
          StrFormat("SyncZookeeper-%llu",
                    static_cast<unsigned long long>(iteration_)));
      for (uint32_t w = 0; w < job_config_.num_workers; ++w) {
        co_await zk_.Op(0);
      }
      messages_.Swap();
      ++iteration_;
      attempt = 0;
      // What a restart would have to recompute since the last checkpoint.
      replay_cost_ += sim_.Now() - step_began;
      logger_.EndOperation(sync);
    }
    co_await sim::JoinAll(std::move(loops));
    if (job_failed_) co_return;  // leave ProcessGraph (and the root) open
    logger_.AddInfo(process_op_, "Supersteps", Json(iteration_));
    logger_.EndOperation(process_op_);
  }

  // Master@Checkpoint with one parallel Worker@Checkpoint HDFS write per
  // worker; afterwards a restart only replays supersteps newer than this.
  sim::Task<> RunCheckpoint() {
    OpId checkpoint = logger_.StartOperation(
        process_op_, "Master", "Master-0", core::ops::kCheckpoint,
        StrFormat("Checkpoint-%llu",
                  static_cast<unsigned long long>(iteration_)));
    logger_.AddInfo(checkpoint, "Superstep", Json(iteration_));
    co_await ForEachWorker([this, checkpoint](uint32_t w) {
      return WorkerCheckpoint(checkpoint, w);
    });
    logger_.EndOperation(checkpoint);
    last_checkpoint_step_ = iteration_;
    replay_cost_ = SimTime();
  }

  sim::Task<> WorkerCheckpoint(OpId parent, uint32_t w) {
    OpId op = logger_.StartOperation(
        parent, "Worker", StrFormat("Worker-%u", w + 1),
        core::ops::kCheckpoint,
        StrFormat("Checkpoint-%llu-%u",
                  static_cast<unsigned long long>(iteration_), w + 1));
    uint64_t bytes = cost_.checkpoint_bytes_per_vertex *
                     partition_.partitions[w].vertices.size();
    co_await hdfs_.WriteFromNode(WorkerNode(w),
                                 StrFormat("/checkpoint/part-%u", w), bytes);
    logger_.AddInfo(op, "BytesWritten", Json(bytes));
    logger_.EndOperation(op);
  }

  // The doomed attempt itself: a real operation in the tree, so lost
  // work is visible to the archiver and the chokepoint analysis.
  sim::Task<> RunFailedSuperstep(const sim::FaultSpec& crash,
                                 uint32_t attempt) {
    OpId failed = logger_.StartOperation(
        process_op_, "Worker", StrFormat("Worker-%u", crash.worker + 1),
        core::ops::kFailedAttempt,
        StrFormat("FailedAttempt-%llu-%u",
                  static_cast<unsigned long long>(iteration_), attempt + 1));
    SimTime began = sim_.Now();
    co_await sim_.Delay(crash.work_before_crash);
    co_await sim_.Delay(injector_.policy().detect_timeout);
    SimTime lost = sim_.Now() - began;
    logger_.AddInfo(failed, "Superstep", Json(iteration_));
    logger_.AddInfo(failed, "Attempt", Json(static_cast<int64_t>(attempt) + 1));
    logger_.AddInfo(failed, "CrashedWorker",
                    Json(StrFormat("Worker-%u", crash.worker + 1)));
    logger_.AddInfo(failed, "LostTime", Json(lost.nanos()));
    logger_.EndOperation(failed);
    ++failed_attempts_;
    lost_time_ += lost;
  }

  // Recovery: backoff, a replacement container, checkpoint read-back, and
  // replay of the supersteps committed since the last checkpoint.
  sim::Task<> RunRestart(const sim::FaultSpec& crash, uint32_t attempt) {
    OpId restart = logger_.StartOperation(
        process_op_, "Master", "Master-0", core::ops::kRestart,
        StrFormat("Restart-%llu-%u",
                  static_cast<unsigned long long>(iteration_), attempt));
    SimTime began = sim_.Now();
    co_await sim_.Delay(injector_.Backoff(attempt - 1));
    std::vector<cluster::YarnManager::Container> replacement;
    co_await yarn_.AllocateContainers(0, 1, &replacement);
    if (last_checkpoint_step_ > 0) {
      // The replacement worker reloads the crashed worker's state.
      auto blocks =
          hdfs_.GetBlocks(StrFormat("/checkpoint/part-%u", crash.worker));
      if (blocks.ok()) {
        for (const cluster::Hdfs::Block& block : *blocks) {
          co_await hdfs_.ReadBlock(WorkerNode(crash.worker), block);
        }
      }
    }
    co_await sim_.Delay(replay_cost_);
    SimTime lost = sim_.Now() - began;
    logger_.AddInfo(restart, "Attempt", Json(static_cast<int64_t>(attempt)));
    logger_.AddInfo(restart, "ReplayedSupersteps",
                    Json(iteration_ - last_checkpoint_step_));
    logger_.AddInfo(restart, "LostTime", Json(lost.nanos()));
    logger_.EndOperation(restart);
    ++restarts_;
    lost_time_ += lost;
  }

  sim::Task<> WorkerProcessLoop(uint32_t w) {
    while (true) {
      co_await start_barrier_.Arrive();
      if (process_done_) co_return;
      co_await WorkerSuperstep(w);
    }
  }

  // The Pregel vertex view handed to algorithm programs. One instance per
  // ParallelFor chunk: deliveries go to the chunk's message-store shard and
  // all statistics accumulate chunk-locally, to be merged in chunk order
  // after the parallel region (the determinism contract of ThreadPool).
  class VertexContext : public algo::PregelVertexContext {
   public:
    VertexContext(GiraphJob* job, uint32_t worker, uint64_t shard)
        : job_(job),
          worker_(worker),
          shard_(shard),
          remote_bytes_(job->job_config_.num_workers, 0) {}

    void Reset(VertexId v) {
      vertex_ = v;
      voted_halt_ = false;
    }
    bool voted_halt() const { return voted_halt_; }
    void AddReceived(uint64_t n) { received_ += n; }
    void AddComputed() { ++computed_; }
    void AddActiveDelta(int64_t d) { active_delta_ += d; }
    uint64_t computed() const { return computed_; }
    uint64_t received() const { return received_; }
    uint64_t messages_sent() const { return messages_sent_; }
    int64_t active_delta() const { return active_delta_; }
    // Flat per-target-worker byte counts (indexed by worker id; zero for
    // local or unused workers) — replaces the former std::map.
    const std::vector<uint64_t>& remote_bytes() const {
      return remote_bytes_;
    }

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
      ++messages_sent_;
      uint32_t target_worker = job_->partition_.owner[target];
      if (target_worker != worker_) {
        remote_bytes_[target_worker] += job_->cost_.bytes_per_message;
      }
    }
    void SendToAllNeighbors(double message) override {
      for (VertexId nbr : job_->adjacency_.neighbors(vertex_)) {
        SendTo(nbr, message);
      }
    }
    void VoteToHalt() override { voted_halt_ = true; }

   private:
    GiraphJob* job_;
    uint32_t worker_;
    uint64_t shard_;
    VertexId vertex_ = 0;
    bool voted_halt_ = false;
    uint64_t computed_ = 0;
    uint64_t received_ = 0;
    uint64_t messages_sent_ = 0;
    int64_t active_delta_ = 0;
    std::vector<uint64_t> remote_bytes_;
  };

  sim::Task<> WorkerSuperstep(uint32_t w) {
    std::string actor_id = StrFormat("Worker-%u", w + 1);
    OpId local = logger_.StartOperation(
        superstep_op_, "Worker", actor_id, "LocalSuperstep",
        StrFormat("LocalSuperstep-%u", w + 1));

    // PreStep: barrier entry bookkeeping with ZooKeeper.
    OpId prestep = logger_.StartOperation(
        local, "Worker", actor_id, "PreStep",
        StrFormat("PreStep-%llu",
                  static_cast<unsigned long long>(iteration_)));
    co_await zk_.Op(WorkerNode(w));
    co_await sim_.Delay(cost_.prestep_overhead);
    logger_.EndOperation(prestep);

    // Compute: run the vertex program over this worker's partition.
    OpId compute = logger_.StartOperation(
        local, "Worker", actor_id, "Compute",
        StrFormat("Compute-%llu",
                  static_cast<unsigned long long>(iteration_)));
    uint64_t vertices_computed = 0;
    uint64_t messages_received = 0;
    uint64_t messages_sent = 0;
    std::vector<uint64_t> remote_bytes(job_config_.num_workers, 0);
    // Frontier fast path: a partition with no active vertices and no
    // delivered messages has nothing to compute — skip the vertex scan
    // entirely (the loop below would visit every vertex just to skip it).
    if (partition_active_[w] > 0 || messages_.CurrentPartitionCount(w) > 0) {
      const std::vector<VertexId>& verts = partition_.partitions[w].vertices;
      const uint64_t grain = ChunkedGrain(verts.size());
      const uint64_t chunks = ThreadPool::NumChunks(verts.size(), grain);
      const uint64_t first_shard = messages_.AddShards(chunks);
      std::vector<VertexContext> ctxs;
      ctxs.reserve(chunks);
      for (uint64_t c = 0; c < chunks; ++c) {
        ctxs.emplace_back(this, w, first_shard + c);
      }
      // Host-parallel vertex loop. Chunks touch disjoint vertices (values,
      // active flags) and deliver into their own shards; the simulator is
      // suspended, so no simulation state moves underneath us.
      ParallelFor(0, verts.size(), grain,
                  [&](uint64_t chunk, uint64_t cb, uint64_t ce) {
                    VertexContext& ctx = ctxs[chunk];
                    for (uint64_t i = cb; i < ce; ++i) {
                      VertexId v = verts[i];
                      if (active_[v] == 0 && !messages_.HasCurrent(v)) {
                        continue;
                      }
                      ctx.Reset(v);
                      ctx.AddReceived(messages_.CurrentDeliveryCount(v));
                      program_.Compute(ctx, messages_.CurrentMessages(v));
                      uint8_t now_active = ctx.voted_halt() ? 0 : 1;
                      ctx.AddActiveDelta(static_cast<int64_t>(now_active) -
                                         static_cast<int64_t>(active_[v]));
                      active_[v] = now_active;
                      ctx.AddComputed();
                    }
                  });
      // Deterministic reduction in chunk order.
      int64_t active_delta = 0;
      for (const VertexContext& ctx : ctxs) {
        vertices_computed += ctx.computed();
        messages_received += ctx.received();
        messages_sent += ctx.messages_sent();
        active_delta += ctx.active_delta();
        for (uint32_t t = 0; t < job_config_.num_workers; ++t) {
          remote_bytes[t] += ctx.remote_bytes()[t];
        }
      }
      partition_active_[w] = static_cast<uint64_t>(
          static_cast<int64_t>(partition_active_[w]) + active_delta);
      active_total_ = static_cast<uint64_t>(
          static_cast<int64_t>(active_total_) + active_delta);
    }
    SimTime compute_cost =
        cost_.compute_per_vertex * static_cast<double>(vertices_computed) +
        cost_.compute_per_message * static_cast<double>(messages_received);
    co_await RunOnThreads(&sim_, &WorkerCpu(w), compute_cost,
                          job_config_.compute_threads);
    logger_.AddInfo(compute, "VerticesComputed", Json(vertices_computed));
    logger_.AddInfo(compute, "MessagesReceived", Json(messages_received));
    logger_.AddInfo(compute, "MessagesSent", Json(messages_sent));
    logger_.EndOperation(compute);

    // Message: flush outgoing buffers over the network (ascending worker
    // id, as the former std::map iteration did).
    OpId message = logger_.StartOperation(
        local, "Worker", actor_id, "Message",
        StrFormat("Message-%llu",
                  static_cast<unsigned long long>(iteration_)));
    uint64_t bytes_sent = 0;
    for (uint32_t target = 0; target < job_config_.num_workers; ++target) {
      uint64_t bytes = remote_bytes[target];
      if (bytes == 0) continue;
      bytes_sent += bytes;
      co_await cluster_.Send(WorkerNode(w), WorkerNode(target), bytes);
    }
    logger_.AddInfo(message, "BytesSent", Json(bytes_sent));
    logger_.EndOperation(message);

    // PostStep: wait at the superstep barrier (the gray blocks of Fig. 8).
    OpId poststep = logger_.StartOperation(
        local, "Worker", actor_id, "PostStep",
        StrFormat("PostStep-%llu",
                  static_cast<unsigned long long>(iteration_)));
    co_await sim_.Delay(cost_.poststep_overhead);
    co_await end_barrier_.Arrive();
    logger_.EndOperation(poststep);
    logger_.EndOperation(local);
  }

  // ----------------------------------------------------- offload graph --
  sim::Task<> RunOffloadGraph(OpId root) override {
    OpId offload = StartJobOperation(root, core::ops::kOffloadGraph);
    co_await ForEachWorker(
        [this, offload](uint32_t w) { return WorkerOffload(offload, w); });
    logger_.EndOperation(offload);
  }

  sim::Task<> WorkerOffload(OpId parent, uint32_t w) {
    OpId op = logger_.StartOperation(
        parent, "Worker", StrFormat("Worker-%u", w + 1), "OffloadHdfsData",
        StrFormat("OffloadHdfsData-%u", w + 1));
    uint64_t bytes = cost_.result_bytes_per_vertex *
                     partition_.partitions[w].vertices.size();
    OpId local = logger_.StartOperation(
        op, "Worker", StrFormat("Worker-%u", w + 1), "LocalOffload",
        StrFormat("LocalOffload-%u", w + 1));
    co_await RunOnThreads(
        &sim_, &WorkerCpu(w),
        cost_.serialize_cpu_per_byte * static_cast<double>(bytes),
        job_config_.compute_threads);
    logger_.EndOperation(local);
    co_await hdfs_.WriteFromNode(WorkerNode(w),
                                 StrFormat("/output/part-%u", w), bytes);
    logger_.AddInfo(op, "BytesWritten", Json(bytes));
    logger_.EndOperation(op);
  }

  // ------------------------------------------------------------ cleanup --
  sim::Task<> RunCleanup(OpId root) override {
    OpId cleanup = StartJobOperation(root, core::ops::kCleanup);
    OpId job_cleanup = logger_.StartOperation(cleanup, "Master", "Master-0",
                                              "JobCleanup", "JobCleanup");
    OpId op = logger_.StartOperation(job_cleanup, "Master", "Master-0",
                                     "AbortWorkers", "AbortWorkers");
    co_await sim_.Delay(cost_.abort_workers);
    logger_.EndOperation(op);
    op = logger_.StartOperation(job_cleanup, "Client", "Client-0",
                                "ClientCleanup", "ClientCleanup");
    co_await sim_.Delay(cost_.client_cleanup);
    logger_.EndOperation(op);
    op = logger_.StartOperation(job_cleanup, "Master", "Master-0",
                                "ServerCleanup", "ServerCleanup");
    co_await yarn_.Cleanup();
    co_await sim_.Delay(cost_.server_cleanup);
    logger_.EndOperation(op);
    op = logger_.StartOperation(job_cleanup, "ZooKeeper", "ZooKeeper-0",
                                "ZkCleanup", "ZkCleanup");
    co_await zk_.Op(0);
    co_await sim_.Delay(cost_.zk_cleanup);
    logger_.EndOperation(op);
    logger_.EndOperation(job_cleanup);
    logger_.EndOperation(cleanup);
  }

  // --------------------------------------------------------------- state --
  const GiraphCostModel& cost_;
  const algo::PregelProgram& program_;

  cluster::Hdfs hdfs_;
  cluster::YarnManager yarn_;
  cluster::ZooKeeper zk_;

  sim::Barrier start_barrier_;
  sim::Barrier end_barrier_;

  graph::EdgeCutResult partition_;
  graph::Csr adjacency_;
  std::vector<uint8_t> active_;
  // Frontier bookkeeping (replaces O(V) scans): live counts of active
  // vertices, total and per partition, updated with per-chunk deltas.
  uint64_t active_total_ = 0;
  std::vector<uint64_t> partition_active_;
  MessageStore messages_;
  std::vector<cluster::YarnManager::Container> containers_;

  bool process_done_ = false;
  OpId process_op_ = core::kNoOp;
  OpId superstep_op_ = core::kNoOp;

  // Checkpoint/restart (inert when the fault plan is empty).
  uint64_t last_checkpoint_step_ = 0;
  SimTime replay_cost_;  // committed superstep time since last checkpoint
};

}  // namespace

Result<JobResult> GiraphPlatform::Run(
    const graph::Graph& graph, const algo::AlgorithmSpec& spec,
    const cluster::ClusterConfig& cluster_config,
    const JobConfig& job_config) const {
  return RunEngineJob<GiraphJob>(cost_, graph, spec, cluster_config,
                                job_config);
}

}  // namespace granula::platform
