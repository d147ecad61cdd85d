#include "platforms/gas_job.h"

#include <algorithm>

#include "common/strings.h"
#include "common/thread_pool.h"

namespace granula::platform {

using core::OpId;
using graph::VertexId;

GasJob::GasJob(const graph::Graph& graph, const algo::GasProgram& program,
               const cluster::ClusterConfig& cluster_config,
               const JobConfig& job_config, const char* worker_type)
    : EngineJob(graph, cluster_config, job_config),
      program_(program),
      worker_type_(worker_type),
      start_barrier_(&sim_, static_cast<int>(job_config.num_workers) + 1),
      end_barrier_(&sim_, static_cast<int>(job_config.num_workers) + 1),
      // A zero worker count is rejected in Execute(); the max(1, ...) only
      // keeps the never-used barrier constructible until then.
      stage_barrier_(&sim_,
                     std::max(1, static_cast<int>(job_config.num_workers))) {}

std::string GasJob::WorkerActor(uint32_t worker) const {
  return StrFormat("%s-%u", worker_type_.c_str(), worker);
}

// There are no checkpoints: a crashed or failed job is resubmitted from
// scratch. Each doomed attempt replays the real startup/load/process phases
// inside a FailedAttempt operation up to the crash point, so the archive
// prices rework, not a placeholder.
sim::Task<> GasJob::RunAttempts(OpId root) {
  InitAlgorithmState();
  while (injector_.enabled()) {
    const sim::FaultSpec* fault = injector_.JobFault(job_attempt_);
    if (fault == nullptr) break;
    co_await RunFailedAttempt(root, *fault);
    ++job_attempt_;
    if (job_failed_ || job_attempt_ >= injector_.policy().max_attempts) {
      job_failed_ = true;
      co_return;
    }
    co_await RunRestart(root);
    InitAlgorithmState();
  }
  co_await RunPhases(root);
}

// A whole job attempt that dies: the engine aborts at the scheduled
// iteration (or at natural completion, whichever comes first — the attempt
// always fails). kTaskFailure kills iteration 0; kWorkerCrash its own step.
sim::Task<> GasJob::RunFailedAttempt(OpId root, const sim::FaultSpec& fault) {
  SimTime began = sim_.Now();
  OpId op = StartJobOperation(root, core::ops::kFailedAttempt,
                              StrFormat("FailedAttempt-%u", job_attempt_ + 1));
  crash_pending_ = true;
  crash_at_iteration_ =
      fault.kind == sim::FaultKind::kWorkerCrash ? fault.step : 0;
  crash_worker_ = std::min(fault.worker, job_config_.num_workers - 1);
  crash_work_ = fault.work_before_crash;
  co_await RunStartup(op);
  co_await RunLoadGraph(op);
  if (!job_failed_) co_await RunProcessGraph(op);
  crash_pending_ = false;
  if (job_failed_) co_return;  // storage retries exhausted during load
  SimTime lost = sim_.Now() - began;
  logger_.AddInfo(op, "Attempt", Json(static_cast<int64_t>(job_attempt_) + 1));
  logger_.AddInfo(op, "CrashedWorker", Json(WorkerActor(crash_worker_)));
  logger_.AddInfo(op, "CrashIteration", Json(crash_at_iteration_));
  logger_.AddInfo(op, "LostTime", Json(lost.nanos()));
  logger_.EndOperation(op);
  ++failed_attempts_;
  lost_time_ += lost;
}

// Backoff + cluster resubmission between attempts, wrapped in a Restart
// operation so recovery overhead is priced in the tree.
sim::Task<> GasJob::RunRestart(OpId root) {
  SimTime began = sim_.Now();
  OpId op = StartJobOperation(root, core::ops::kRestart,
                              StrFormat("Restart-%u", job_attempt_));
  co_await sim_.Delay(injector_.Backoff(job_attempt_ - 1));
  co_await sim_.Delay(sim::kResubmitDelay);
  SimTime lost = sim_.Now() - began;
  logger_.AddInfo(op, "Attempt", Json(static_cast<int64_t>(job_attempt_) + 1));
  logger_.AddInfo(op, "LostTime", Json(lost.nanos()));
  logger_.EndOperation(op);
  ++restarts_;
  lost_time_ += lost;
}

void GasJob::InitAlgorithmState() {
  const uint64_t n = graph_.num_vertices();
  values_.resize(n);
  active_.assign(n, 0);
  next_active_.assign(n, 0);
  acc_.assign(n, 0.0);
  acc_has_.assign(n, 0);
  active_count_ = 0;
  for (VertexId v = 0; v < n; ++v) {
    values_[v] = program_.InitialValue(v, n);
    bool is_active = program_.InitiallyActive(v);
    active_[v] = is_active ? 1 : 0;
    if (is_active) ++active_count_;
  }
  next_active_count_ = 0;
  iteration_ = 0;
  process_done_ = false;
}

GasJob::ApplyCounts GasJob::ApplyChangedValues(
    const std::vector<VertexId>& owned, const graph::Csr& adjacency) {
  const uint64_t grain = ChunkedGrain(owned.size());
  const uint64_t chunks = ThreadPool::NumChunks(owned.size(), grain);
  std::vector<ApplyCounts> chunk_counts(chunks);
  std::vector<uint64_t> chunk_newly_active(chunks, 0);
  ParallelFor(0, owned.size(), grain,
              [&](uint64_t chunk, uint64_t cb, uint64_t ce) {
                ApplyCounts& mine = chunk_counts[chunk];
                for (uint64_t i = cb; i < ce; ++i) {
                  VertexId v = owned[i];
                  if (acc_has_[v] == 0 && active_[v] == 0) continue;
                  double acc =
                      acc_has_[v] != 0 ? acc_[v] : program_.GatherInit();
                  algo::GasProgram::ApplyResult r = program_.Apply(
                      v, values_[v], acc, graph_.num_vertices());
                  if (r.new_value != values_[v]) {
                    values_[v] = r.new_value;
                    if (r.scatter && next_active_[v] == 0) {
                      next_active_[v] = 1;
                      ++chunk_newly_active[chunk];
                      mine.activated_degree += adjacency.degree(v);
                    }
                  }
                  ++mine.applies;
                }
              });
  ApplyCounts total;
  for (uint64_t c = 0; c < chunks; ++c) {
    total.applies += chunk_counts[c].applies;
    total.activated_degree += chunk_counts[c].activated_degree;
    next_active_count_ += chunk_newly_active[c];
  }
  return total;
}

sim::Task<> GasJob::RunProcessGraph(OpId root) {
  OpId process = StartJobOperation(root, core::ops::kProcessGraph);
  std::vector<sim::ProcessHandle> loops;
  for (uint32_t w = 0; w < job_config_.num_workers; ++w) {
    loops.push_back(sim_.Spawn(WorkerProcessLoop(w)));
  }
  while (true) {
    uint64_t max_iters = program_.max_iterations();
    bool done =
        active_count_ == 0 || (max_iters > 0 && iteration_ >= max_iters);
    if (crash_pending_ && (done || iteration_ >= crash_at_iteration_)) {
      // The victim dies partway into the iteration; the engine notices
      // after the liveness timeout and aborts the whole job.
      co_await sim_.Delay(crash_work_ + sim::kDetectTimeout);
      done = true;
    }
    if (done) {
      process_done_ = true;
      co_await start_barrier_.Arrive();  // release workers to exit
      break;
    }
    iteration_op_ = logger_.StartOperation(
        process, "Engine", "Engine-0", "Iteration",
        StrFormat("Iteration-%llu",
                  static_cast<unsigned long long>(iteration_)));
    OnIterationStart();
    co_await start_barrier_.Arrive();
    co_await end_barrier_.Arrive();
    logger_.EndOperation(iteration_op_);

    // Synchronous-engine bookkeeping between iterations.
    ++iteration_;
    const uint64_t n = graph_.num_vertices();
    const uint64_t fill_grain = ChunkedGrain(n);
    ParallelFor(0, n, fill_grain, [&](uint64_t, uint64_t b, uint64_t e) {
      std::fill(acc_.begin() + b, acc_.begin() + e, 0.0);
      std::fill(acc_has_.begin() + b, acc_has_.begin() + e, 0);
    });
    if (program_.always_active()) {
      bool more = max_iters == 0 || iteration_ < max_iters;
      ParallelFor(0, n, fill_grain, [&](uint64_t, uint64_t b, uint64_t e) {
        std::fill(active_.begin() + b, active_.begin() + e, more ? 1 : 0);
      });
      active_count_ = more ? n : 0;
    } else {
      active_.swap(next_active_);
      active_count_ = next_active_count_;
    }
    ParallelFor(0, n, fill_grain, [&](uint64_t, uint64_t b, uint64_t e) {
      std::fill(next_active_.begin() + b, next_active_.begin() + e, 0);
    });
    next_active_count_ = 0;
    OnIterationEnd();
  }
  co_await sim::JoinAll(std::move(loops));
  logger_.AddInfo(process, "Iterations", Json(iteration_));
  logger_.EndOperation(process);
}

sim::Task<> GasJob::WorkerProcessLoop(uint32_t worker) {
  while (true) {
    co_await start_barrier_.Arrive();
    if (process_done_) co_return;
    co_await WorkerIteration(worker);
    co_await end_barrier_.Arrive();
  }
}

}  // namespace granula::platform
