#include "platforms/engine_job.h"

#include <utility>

#include "common/strings.h"
#include "sim/sync.h"

namespace granula::platform {

using core::OpId;

EngineJob::EngineJob(const graph::Graph& graph,
                     const cluster::ClusterConfig& cluster_config,
                     const JobConfig& job_config)
    : graph_(graph),
      job_config_(job_config),
      input_bytes_(graph::EdgeListFileBytes(graph)),
      cluster_(&sim_, cluster_config),
      monitor_(&cluster_, job_config.monitor_interval),
      logger_([this] { return sim_.Now(); }),
      injector_(job_config_.faults) {}

Status EngineJob::Execute(JobResult* out) {
  if (job_config_.num_workers == 0 ||
      job_config_.num_workers > cluster_.num_nodes()) {
    return Status::InvalidArgument("num_workers must be in [1, num_nodes]");
  }
  InstallLogWriteFaults(&logger_, job_config_.faults);
  if (!job_config_.live_log_path.empty()) {
    GRANULA_RETURN_IF_ERROR(logger_.StreamTo(job_config_.live_log_path,
                                             job_config_.live_log_delay_us));
  }
  GRANULA_RETURN_IF_ERROR(Setup());

  sim_.Spawn(Main());
  sim_.Run();
  logger_.StopStreaming();

  out->vertex_values = values_;
  out->records = logger_.TakeRecords();
  out->environment = ToEnvironmentRecords(monitor_.samples());
  out->supersteps = iteration_;
  out->total_seconds = sim_.Now().seconds();
  out->network_bytes = cluster_.network_bytes_sent();
  out->completed = !job_failed_;
  out->failed_attempts = failed_attempts_;
  out->restarts = restarts_;
  out->lost_seconds = lost_time_.seconds();
  return Status::OK();
}

sim::Task<> EngineJob::Main() {
  monitor_.Start();
  OpId root = StartJobOperation(core::kNoOp, core::ops::kJobMission,
                                JobName());
  co_await RunAttempts(root);
  if (!job_failed_) {
    // A failed job's root never closes: the archive is kIncomplete, like a
    // truncated real-world capture.
    if (job_attempt_ > 0) {
      logger_.AddInfo(root, "Attempts",
                      Json(static_cast<int64_t>(job_attempt_) + 1));
    }
    logger_.AddInfo(root, "NetworkBytes",
                    Json(cluster_.network_bytes_sent()));
    logger_.EndOperation(root);
  }
  monitor_.Stop();
}

sim::Task<> EngineJob::RunPhases(OpId root) {
  co_await RunStartup(root);
  co_await RunLoadGraph(root);
  if (!job_failed_) co_await RunProcessGraph(root);
  if (job_failed_) co_return;
  if (job_config_.offload_results) co_await RunOffloadGraph(root);
  co_await RunCleanup(root);
}

OpId EngineJob::StartJobOperation(OpId parent, const char* mission_type,
                                  std::string mission_id) {
  if (mission_id.empty()) mission_id = mission_type;
  return logger_.StartOperation(parent, core::ops::kJobActor,
                                job_config_.job_id, mission_type,
                                std::move(mission_id));
}

sim::Task<> EngineJob::ForEachWorker(
    std::function<sim::Task<>(uint32_t)> per_worker) {
  std::vector<sim::ProcessHandle> handles;
  handles.reserve(job_config_.num_workers);
  for (uint32_t w = 0; w < job_config_.num_workers; ++w) {
    handles.push_back(sim_.Spawn(per_worker(w)));
  }
  co_await sim::JoinAll(std::move(handles));
}

sim::Task<bool> EngineJob::RetryLoad(
    OpId parent, std::string actor_type, std::string actor_id,
    std::string name_prefix,
    std::function<const sim::FaultSpec*(uint32_t)> fault_at) {
  if (!injector_.enabled()) co_return true;
  for (uint32_t retry = 0; const sim::FaultSpec* fault = fault_at(retry);) {
    SimTime began = sim_.Now();
    OpId failed = logger_.StartOperation(
        parent, actor_type, actor_id, core::ops::kFailedAttempt,
        name_prefix + std::to_string(retry + 1));
    co_await sim_.Delay(fault->work_before_crash);
    co_await sim_.Delay(injector_.Backoff(retry));
    SimTime lost = sim_.Now() - began;
    logger_.AddInfo(failed, "Attempt", Json(static_cast<int64_t>(retry) + 1));
    logger_.AddInfo(failed, "LostTime", Json(lost.nanos()));
    logger_.EndOperation(failed);
    ++failed_attempts_;
    lost_time_ += lost;
    if (++retry >= injector_.policy().max_attempts) {
      job_failed_ = true;
      co_return false;
    }
  }
  co_return true;
}

}  // namespace granula::platform
