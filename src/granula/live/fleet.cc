#include "granula/live/fleet.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/strings.h"

namespace granula::core {

namespace {

// Job names come off the wire (URL segments, --source flags); keep them
// filesystem- and URL-safe since they become repository archive names.
bool ValidJobName(const std::string& name) {
  if (name.empty() || name.size() > 64 || name[0] == '.') return false;
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

// PerformanceArchive is move-only (the root subtree); Archive() hands out
// deep copies.
PerformanceArchive CopyArchive(const PerformanceArchive& archive) {
  PerformanceArchive out;
  out.job_metadata = archive.job_metadata;
  out.model_name = archive.model_name;
  out.status = archive.status;
  if (archive.root != nullptr) out.root = archive.root->Clone();
  out.environment = archive.environment;
  out.lint = archive.lint;
  return out;
}

}  // namespace

const char* FleetSupervisor::JobStateName(JobState state) {
  switch (state) {
    case JobState::kStreaming:
      return "streaming";
    case JobState::kStalled:
      return "stalled";
    case JobState::kComplete:
      return "complete";
    case JobState::kIncomplete:
      return "incomplete";
  }
  return "streaming";
}

FleetSupervisor::FleetSupervisor(PerformanceModel default_model,
                                 FleetOptions options)
    : default_model_(std::move(default_model)),
      options_(std::move(options)),
      now_(OrSteadyClock(options_.now)) {
  if (!options_.repo_dir.empty()) repo_.emplace(options_.repo_dir);
}

FleetSupervisor::~FleetSupervisor() { Drain(); }

void FleetSupervisor::AddAlertSink(std::shared_ptr<AlertSink> sink) {
  std::lock_guard<std::mutex> lock(mu_);
  sinks_.push_back(std::move(sink));
}

Result<FleetSupervisor::Job*> FleetSupervisor::FindOrCreateJobLocked(
    const std::string& name, const std::string& transport,
    const std::string& model_name) {
  auto it = jobs_.find(name);
  if (it != jobs_.end()) return it->second.get();
  if (!ValidJobName(name)) {
    return Status::InvalidArgument(
        "bad job name '" + name +
        "' (1-64 chars of [A-Za-z0-9._-], no leading dot)");
  }
  PerformanceModel model = default_model_;
  if (!model_name.empty()) {
    if (!options_.model_resolver) {
      return Status::InvalidArgument(
          "job '" + name + "' asked for model '" + model_name +
          "' but the fleet has no model resolver");
    }
    GRANULA_ASSIGN_OR_RETURN(model, options_.model_resolver(model_name));
  }
  auto job = std::make_unique<Job>(std::move(model));
  job->name = name;
  job->transport = transport;
  job->archiver.emplace(job->model, options_.archiver);
  job->alerts = AlertTracker(options_.chokepoints);
  job->last_progress_s = now_();
  Job* raw = job.get();
  jobs_.emplace(name, std::move(job));
  return raw;
}

Status FleetSupervisor::AddSource(const std::string& job,
                                  std::unique_ptr<RecordSource> source,
                                  const std::string& model_name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (drained_) return Status::FailedPrecondition("fleet is drained");
  if (jobs_.count(job) > 0) {
    return Status::AlreadyExists("job '" + job + "' is already registered");
  }
  GRANULA_ASSIGN_OR_RETURN(
      Job * entry, FindOrCreateJobLocked(job, source->describe(), model_name));
  entry->source = std::move(source);
  return Status::OK();
}

Result<size_t> FleetSupervisor::Ingest(const std::string& job,
                                       std::vector<LogRecord> records,
                                       uint64_t malformed,
                                       const std::string& model_name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (drained_) return Status::FailedPrecondition("fleet is drained");
  GRANULA_ASSIGN_OR_RETURN(Job * entry,
                           FindOrCreateJobLocked(job, "push", model_name));
  if (entry->finalized) {
    return Status::FailedPrecondition("job '" + job +
                                      "' is already finalized");
  }
  entry->malformed += malformed;
  if (entry->queue.size() + records.size() > options_.queue_capacity) {
    ++entry->shed_batches;
    entry->shed_records += records.size();
    return Status::OutOfRange(StrFormat(
        "job '%s' queue is full (%zu queued, capacity %zu) — batch shed",
        job.c_str(), entry->queue.size(), options_.queue_capacity));
  }
  for (LogRecord& record : records) {
    entry->queue.push_back(std::move(record));
  }
  return records.size();
}

Status FleetSupervisor::Start() {
  if (running_.exchange(true, std::memory_order_acq_rel)) {
    return Status::FailedPrecondition("fleet supervisor is already running");
  }
  stopping_.store(false, std::memory_order_release);
  supervisor_ = std::thread([this] {
    while (!stopping_.load(std::memory_order_acquire)) {
      Tick();
      // Sleep in small slices so Drain() never waits out a long poll
      // interval just to stop the loop.
      double remaining_ms = options_.poll_interval_ms;
      while (remaining_ms > 0 && !stopping_.load(std::memory_order_acquire)) {
        double slice_ms = std::min(remaining_ms, 20.0);
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(slice_ms));
        remaining_ms -= slice_ms;
      }
    }
  });
  return Status::OK();
}

void FleetSupervisor::Tick() {
  std::vector<Job*> jobs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.ticks;
    jobs.reserve(jobs_.size());
    for (auto& [name, job] : jobs_) {
      if (!job->finalized) jobs.push_back(job.get());
    }
  }
  for (Job* job : jobs) TickJob(job, now_());
}

void FleetSupervisor::EmitAlerts(Job* job, std::vector<LiveAlert> fresh) {
  if (fresh.empty()) return;
  std::vector<std::shared_ptr<AlertSink>> sinks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    job->alert_count += fresh.size();
    stats_.alerts += fresh.size();
    sinks = sinks_;
  }
  for (LiveAlert& alert : fresh) {
    alert.job = job->name;
    for (const std::shared_ptr<AlertSink>& sink : sinks) {
      sink->OnAlert(alert);
    }
  }
}

bool FleetSupervisor::PullRecords(Job* job) {
  std::vector<LogRecord> pending;
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending.assign(std::make_move_iterator(job->queue.begin()),
                   std::make_move_iterator(job->queue.end()));
    job->queue.clear();
  }
  RecordSource::Poll poll;
  if (job->source != nullptr) poll = job->source->PollOnce();
  if (poll.rotated) {
    // The job restarted with a fresh log: restart assembly. Alert dedup
    // state survives on purpose — the analyst already saw those.
    job->archiver.emplace(job->model, options_.archiver);
  }
  for (LogRecord& record : poll.records) pending.push_back(std::move(record));
  if (!pending.empty()) job->archiver->AppendAll(pending);

  std::lock_guard<std::mutex> lock(mu_);
  job->malformed += poll.malformed_lines;
  stats_.malformed += poll.malformed_lines;
  job->records += pending.size();
  stats_.records += pending.size();
  if (poll.rotated) {
    ++job->rotations;
    job->archive.reset();  // the old run's snapshot
  }
  if (job->source != nullptr) job->reconnects = job->source->reconnects();
  job->archiver_stats = job->archiver->stats();
  job->watermark = job->archiver->watermark();
  return !pending.empty() || poll.rotated;
}

void FleetSupervisor::TickJob(Job* job, double now_s) {
  if (PullRecords(job)) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      job->last_progress_s = now_s;
      job->stall_raised = false;  // woke back up; re-arm the detector
      if (job->state == JobState::kStalled) job->state = JobState::kStreaming;
    }
    // The in-flight snapshot the alerts are raised on is also the job's
    // Archive() until a newer one (or the final one) replaces it.
    Result<PerformanceArchive> snapshot = job->archiver->Snapshot();
    if (snapshot.ok()) {
      EmitAlerts(job, job->alerts.Update(*snapshot));
      std::lock_guard<std::mutex> lock(mu_);
      job->archive = std::move(*snapshot);
    }
  }

  if (job->archiver->complete()) {
    FinalizeJob(job, /*source_lost_alert=*/false);
    return;
  }
  if (job->source != nullptr && job->source->lost()) {
    FinalizeJob(job, /*source_lost_alert=*/true);
    return;
  }
  bool raise_stall = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (options_.stall_timeout_s > 0 && !job->stall_raised &&
        now_s - job->last_progress_s >= options_.stall_timeout_s) {
      job->stall_raised = true;
      job->state = JobState::kStalled;
      raise_stall = true;
    }
  }
  if (raise_stall) {
    double stalled_s = now_s - job->last_progress_s;
    Finding finding{
        FindingKind::kStalledJob, Severity::kCritical, job->transport,
        StrFormat("no new log records for %.1fs while job '%s' is still in "
                  "flight — crashed worker or wedged platform",
                  stalled_s, job->name.c_str()),
        stalled_s};
    std::optional<LiveAlert> alert =
        job->alerts.RaiseExternal(std::move(finding), /*in_flight=*/true);
    if (alert.has_value()) EmitAlerts(job, {*alert});
  }
}

void FleetSupervisor::FinalizeJob(Job* job, bool source_lost_alert) {
  if (source_lost_alert) {
    uint64_t failures =
        job->source != nullptr ? job->source->consecutive_failures() : 0;
    Finding finding{
        FindingKind::kStalledJob, Severity::kCritical, job->transport,
        StrFormat("record source lost after %llu consecutive failures — "
                  "job '%s' finalized incomplete",
                  static_cast<unsigned long long>(failures),
                  job->name.c_str()),
        static_cast<double>(failures)};
    std::optional<LiveAlert> alert =
        job->alerts.RaiseExternal(std::move(finding), /*in_flight=*/true);
    if (alert.has_value()) EmitAlerts(job, {*alert});
  }

  job->archiver->Finish();
  Result<PerformanceArchive> final_snapshot = job->archiver->Snapshot();
  JobState state = JobState::kIncomplete;
  std::string archive_name;
  std::string error;
  std::optional<PerformanceArchive> kept;
  if (final_snapshot.ok()) {
    // One last analysis over the sealed tree, so a short job still gets
    // its findings.
    EmitAlerts(job, job->alerts.Update(*final_snapshot));
    state = final_snapshot->status == ArchiveStatus::kComplete
                ? JobState::kComplete
                : JobState::kIncomplete;
    if (repo_.has_value()) {
      Result<std::string> saved = repo_->Save(*final_snapshot, job->name);
      if (saved.ok()) {
        archive_name = *saved;
      } else {
        error = saved.status().ToString();
      }
    }
    kept = std::move(*final_snapshot);
  } else {
    error = final_snapshot.status().ToString();
  }

  std::lock_guard<std::mutex> lock(mu_);
  job->finalized = true;
  job->state = state;
  job->source_lost = source_lost_alert;
  job->archive_name = archive_name;
  job->error = error;
  job->archiver_stats = job->archiver->stats();
  if (kept.has_value()) job->archive = std::move(kept);
  job->queue.clear();
  if (job->source != nullptr) job->reconnects = job->source->reconnects();
  job->source.reset();  // closes the transport
  if (state == JobState::kComplete) {
    ++stats_.complete;
  } else {
    ++stats_.incomplete;
  }
}

void FleetSupervisor::Drain() {
  running_.store(false, std::memory_order_release);
  stopping_.store(true, std::memory_order_release);
  if (supervisor_.joinable()) supervisor_.join();

  std::vector<Job*> open;
  std::vector<std::shared_ptr<AlertSink>> sinks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (drained_) return;
    drained_ = true;
    for (auto& [name, job] : jobs_) {
      if (!job->finalized) open.push_back(job.get());
    }
    sinks = sinks_;
  }
  for (Job* job : open) {
    // One last pull per job: drain the push queue and give a live source
    // a final poll so records already on the wire are not dropped.
    PullRecords(job);
    FinalizeJob(job, job->source != nullptr && job->source->lost());
  }
  for (const std::shared_ptr<AlertSink>& sink : sinks) sink->Flush();
}

FleetSupervisor::Stats FleetSupervisor::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats out = stats_;
  out.jobs = jobs_.size();
  out.active = 0;
  out.shed_batches = 0;
  out.shed_records = 0;
  for (const auto& [name, job] : jobs_) {
    if (!job->finalized) ++out.active;
    out.shed_batches += job->shed_batches;
    out.shed_records += job->shed_records;
  }
  return out;
}

std::vector<FleetSupervisor::JobStatus> FleetSupervisor::JobStatuses() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<JobStatus> out;
  out.reserve(jobs_.size());
  for (const auto& [name, job] : jobs_) {
    JobStatus status;
    status.name = job->name;
    status.transport = job->transport;
    status.state = job->state;
    status.records = job->records;
    status.malformed = job->malformed;
    status.shed_batches = job->shed_batches;
    status.shed_records = job->shed_records;
    status.queued = job->queue.size();
    status.alerts = job->alert_count;
    status.reconnects = job->reconnects;
    status.rotations = job->rotations;
    status.source_lost = job->source_lost;
    status.archive_name = job->archive_name;
    status.error = job->error;
    status.archiver = job->archiver_stats;
    status.watermark = job->watermark;
    out.push_back(std::move(status));
  }
  return out;
}

Result<PerformanceArchive> FleetSupervisor::Archive(
    const std::string& job) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(job);
  if (it == jobs_.end() || !it->second->archive.has_value()) {
    return Status::NotFound("no archive yet for job '" + job + "'");
  }
  return CopyArchive(*it->second->archive);
}

std::vector<LiveAlert> FleetSupervisor::Alerts(const std::string& job) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(job);
  if (it == jobs_.end()) return {};
  return it->second->alerts.alerts();
}

}  // namespace granula::core
