#include "platforms/hadoop.h"

#include "common/strings.h"
#include "platforms/pregel_job.h"

namespace granula::platform {

namespace {

using core::OpId;

// One Pregel-on-MapReduce job on the Pregel job core: a MapReduce job per
// superstep, each with fresh containers, map-side Compute, a shuffle and a
// reduce that rewrites the full state file on HDFS. Worker w of the core is
// map/reduce task w of the current MapReduce job.
class HadoopJob : public PregelJob {
 public:
  HadoopJob(const HadoopCostModel& cost, const graph::Graph& graph,
            const algo::PregelProgram& program,
            const cluster::ClusterConfig& cluster_config,
            const JobConfig& job_config)
      : PregelJob(graph, program, cluster_config, job_config),
        cost_(cost) {}

 private:
  const char* JobName() const override { return "HadoopJob"; }

  Status Setup() override {
    GRANULA_RETURN_IF_ERROR(PregelJob::Setup());
    // The iterated state file holds every vertex's value, its adjacency
    // (both directions, as text), and pending messages.
    state_bytes_ = cost_.state_bytes_per_vertex * graph_.num_vertices() +
                   2 * input_bytes_;
    return Status::OK();
  }

  // Startup: only the client and HDFS checks — each MR job pays its own
  // provisioning later (the structural difference from Giraph, which
  // allocates workers once).
  sim::Task<> RunStartup(OpId root) override {
    OpId startup = StartJobOperation(root, core::ops::kStartup);
    OpId op = logger_.StartOperation(startup, "Client", "Client-0",
                                     "JobStartup", "JobStartup");
    co_await sim_.Delay(SimTime::Millis(900));  // client + staging dir
    logger_.EndOperation(op);
    logger_.EndOperation(startup);
  }

  // LoadGraph: one conversion pass materializes the iterated state file
  // from the edge list.
  sim::Task<> RunLoadGraph(OpId root) override {
    OpId load = StartJobOperation(root, core::ops::kLoadGraph);
    OpId op = logger_.StartOperation(load, "Job", kJobId,
                                     "MaterializeState", "MaterializeState");
    co_await RunMrJob(op, /*is_materialize=*/true);
    logger_.AddInfo(op, "StateBytes", Json(state_bytes_));
    logger_.EndOperation(op);
    logger_.EndOperation(load);
  }

  sim::Task<> RunProcessGraph(OpId root) override {
    OpId process = StartJobOperation(root, core::ops::kProcessGraph);
    while (true) {
      uint64_t max_steps = program_.max_supersteps();
      if (!AnyComputeCandidate() ||
          (max_steps > 0 && iteration_ >= max_steps)) {
        break;
      }
      OpId job_op = logger_.StartOperation(
          process, "Master", "Master-0", "MrJob",
          StrFormat("Iteration-%llu",
                    static_cast<unsigned long long>(iteration_)));
      co_await RunMrJob(job_op, /*is_materialize=*/false);
      if (job_failed_) co_return;  // leave job_op and process open
      logger_.EndOperation(job_op);
      messages_.Swap();
      ++iteration_;
    }
    logger_.AddInfo(process, "Iterations", Json(iteration_));
    logger_.EndOperation(process);
  }

  // One MapReduce job. For the materialization pass the map side only
  // converts formats (no Compute, no shuffle of messages).
  sim::Task<> RunMrJob(OpId job_op, bool is_materialize) {
    // Fresh containers for every job: Hadoop's per-job provisioning.
    OpId setup = logger_.StartOperation(job_op, "Master", "Master-0",
                                        "JobSetup", "JobSetup");
    co_await sim_.Delay(cost_.job_submit);
    containers_.clear();
    co_await yarn_.AllocateContainers(0, job_config_.num_workers,
                                      &containers_);
    logger_.EndOperation(setup);

    // Map phase: all tasks in parallel.
    OpId map_phase = logger_.StartOperation(job_op, "Job", kJobId,
                                            "MapPhase", "MapPhase");
    map_output_bytes_.assign(job_config_.num_workers, 0);
    // Each map task's outbox shards (one per chunk of its partition),
    // reserved in task-index order before any task runs. The merge at
    // Swap() folds shards in index order, so message delivery order — and
    // the floating-point sums it feeds — is independent of task completion
    // times. A rescheduled (failed and retried) map task computes late but
    // still delivers into its own slots: recovery cannot change the answer.
    std::vector<uint64_t> first_shard(job_config_.num_workers, 0);
    if (!is_materialize) {
      for (uint32_t task = 0; task < job_config_.num_workers; ++task) {
        first_shard[task] = messages_.AddShards(PartitionShards(task));
      }
    }
    co_await ForEachWorker([&, this](uint32_t task) {
      return MapTask(map_phase, task, is_materialize, first_shard[task]);
    });
    if (job_failed_) co_return;  // leave the map phase open
    logger_.EndOperation(map_phase);

    // Shuffle: map outputs cross the network to their reducers.
    OpId shuffle = logger_.StartOperation(job_op, "Job", kJobId,
                                          "ShufflePhase", "ShufflePhase");
    co_await ForEachWorker(
        [this, shuffle](uint32_t task) { return ShuffleTask(shuffle, task); });
    logger_.EndOperation(shuffle);

    // Reduce phase: merge, apply, and write the next state file.
    OpId reduce_phase = logger_.StartOperation(
        job_op, "Job", kJobId, "ReducePhase", "ReducePhase");
    co_await ForEachWorker([this, reduce_phase](uint32_t task) {
      return ReduceTask(reduce_phase, task);
    });
    logger_.EndOperation(reduce_phase);

    OpId commit = logger_.StartOperation(job_op, "Master", "Master-0",
                                         "JobCommit", "JobCommit");
    co_await sim_.Delay(cost_.job_commit);
    logger_.EndOperation(commit);
  }

  sim::Task<> MapTask(OpId parent, uint32_t task, bool is_materialize,
                      uint64_t first_shard) {
    // Injected task faults: YARN reschedules a failed map attempt on a
    // fresh container after a backoff. Each failed attempt is a real
    // operation — the partial read, the crash, detection, and the
    // backoff — and never mutates algorithm state (Compute runs only on
    // the attempt that succeeds). The materialization pass is exempt so
    // faults key on process-graph iterations.
    if (injector_.enabled() && !is_materialize) {
      uint32_t attempt = 0;
      while (const sim::FaultSpec* fault =
                 injector_.TaskFault(task, iteration_, attempt)) {
        OpId failed = logger_.StartOperation(
            parent, "Worker", StrFormat("MapTask-%u", task + 1),
            core::ops::kFailedAttempt,
            StrFormat("FailedAttempt-%llu-%u-%u",
                      static_cast<unsigned long long>(iteration_), task + 1,
                      attempt + 1));
        SimTime began = sim_.Now();
        uint64_t input = state_bytes_ / job_config_.num_workers;
        co_await cluster_.node(WorkerNode(task)).disk().Transfer(input / 2);
        co_await sim_.Delay(fault->work_before_crash);
        co_await sim_.Delay(sim::kDetectTimeout);
        co_await sim_.Delay(injector_.Backoff(attempt));
        SimTime lost = sim_.Now() - began;
        logger_.AddInfo(failed, "Iteration", Json(iteration_));
        logger_.AddInfo(failed, "Attempt",
                        Json(static_cast<int64_t>(attempt) + 1));
        logger_.AddInfo(failed, "LostTime", Json(lost.nanos()));
        logger_.EndOperation(failed);
        ++failed_attempts_;
        lost_time_ += lost;
        ++attempt;
        if (attempt >= injector_.policy().max_attempts) {
          job_failed_ = true;
          co_return;
        }
      }
      restarts_ += attempt > 0 ? 1 : 0;
    }
    OpId op = logger_.StartOperation(
        parent, "Worker", StrFormat("MapTask-%u", task + 1), "MapTask",
        StrFormat("MapTask-%u", task + 1));
    // Read this task's share of the state file (edge file on the
    // materialization pass).
    uint64_t input = (is_materialize ? input_bytes_ : state_bytes_) /
                     job_config_.num_workers;
    co_await cluster_.node(WorkerNode(task)).disk().Transfer(input);
    co_await RunOnThreads(
        &sim_, &WorkerCpu(task),
        cost_.map_parse_per_byte * static_cast<double>(input),
        job_config_.compute_threads);

    // Pregel-on-MapReduce: Compute runs map-side over this partition.
    ComputeCounts counts;
    if (!is_materialize) counts = ComputePartition(task, first_shard);
    const uint64_t message_bytes = counts.sent * cost_.bytes_per_message;
    // Spill: every vertex's state plus emitted messages go to local disk.
    uint64_t output = state_bytes_ / job_config_.num_workers + message_bytes;
    map_output_bytes_[task] = output;
    co_await RunOnThreads(
        &sim_, &WorkerCpu(task),
        cost_.spill_per_byte * static_cast<double>(output),
        job_config_.compute_threads);
    co_await cluster_.node(WorkerNode(task)).disk().Transfer(output);
    logger_.AddInfo(op, "VerticesComputed", Json(counts.computed));
    logger_.AddInfo(op, "OutputBytes", Json(output));
    logger_.EndOperation(op);
  }

  sim::Task<> ShuffleTask(OpId parent, uint32_t task) {
    OpId op = logger_.StartOperation(
        parent, "Worker", StrFormat("ShuffleTask-%u", task + 1),
        "ShuffleTask", StrFormat("ShuffleTask-%u", task + 1));
    // All but the local 1/W of this map task's output crosses the network,
    // spread evenly over the other reducers.
    uint64_t output = map_output_bytes_[task];
    uint64_t remote = output - output / job_config_.num_workers;
    uint64_t per_reducer =
        job_config_.num_workers > 1 ? remote / (job_config_.num_workers - 1)
                                    : 0;
    for (uint32_t r = 0; r < job_config_.num_workers; ++r) {
      if (r == task || per_reducer == 0) continue;
      co_await cluster_.Send(WorkerNode(task), WorkerNode(r), per_reducer);
    }
    logger_.AddInfo(op, "ShuffledBytes", Json(remote));
    logger_.EndOperation(op);
  }

  sim::Task<> ReduceTask(OpId parent, uint32_t task) {
    OpId op = logger_.StartOperation(
        parent, "Worker", StrFormat("ReduceTask-%u", task + 1),
        "ReduceTask", StrFormat("ReduceTask-%u", task + 1));
    uint64_t input = state_bytes_ / job_config_.num_workers;
    uint64_t records = partition_.partitions[task].vertices.size();
    // Merge-sort the shuffled input, apply per record, write new state.
    co_await RunOnThreads(
        &sim_, &WorkerCpu(task),
        cost_.sort_per_byte * static_cast<double>(input) +
            cost_.reduce_per_record * static_cast<double>(records),
        job_config_.compute_threads);
    co_await RunOnThreads(
        &sim_, &WorkerCpu(task),
        cost_.serialize_per_byte * static_cast<double>(input),
        job_config_.compute_threads);
    co_await hdfs_.WriteFromNode(
        WorkerNode(task),
        StrFormat("/state/iter-%llu/part-%u",
                  static_cast<unsigned long long>(iteration_), task),
        input);
    logger_.AddInfo(op, "Records", Json(records));
    logger_.EndOperation(op);
  }

  sim::Task<> RunOffloadGraph(OpId root) override {
    OpId offload = StartJobOperation(root, core::ops::kOffloadGraph);
    OpId op = logger_.StartOperation(offload, "Worker", "Worker-1",
                                     "ExtractOutput", "ExtractOutput");
    // Strip values from the last state file (a cheap map-only pass
    // without compute; the state is already on HDFS).
    uint64_t result_bytes = 12 * graph_.num_vertices();
    co_await hdfs_.WriteFromNode(0, "/output/values", result_bytes);
    logger_.AddInfo(op, "BytesWritten", Json(result_bytes));
    logger_.EndOperation(op);
    logger_.EndOperation(offload);
  }

  sim::Task<> RunCleanup(OpId root) override {
    OpId cleanup = StartJobOperation(root, core::ops::kCleanup);
    OpId op = logger_.StartOperation(cleanup, "Master", "Master-0",
                                     "JobCleanup", "JobCleanup");
    co_await yarn_.Cleanup();
    co_await sim_.Delay(SimTime::Seconds(1.5));  // staging dir removal
    logger_.EndOperation(op);
    logger_.EndOperation(cleanup);
  }

  const HadoopCostModel& cost_;
  std::vector<uint64_t> map_output_bytes_;

  uint64_t state_bytes_ = 0;
};

}  // namespace

Result<JobResult> HadoopPlatform::Run(
    const graph::Graph& graph, const algo::AlgorithmSpec& spec,
    const cluster::ClusterConfig& cluster_config,
    const JobConfig& job_config) const {
  return RunEngineJob<HadoopJob>(cost_, graph, spec, cluster_config,
                                job_config);
}

}  // namespace granula::platform
