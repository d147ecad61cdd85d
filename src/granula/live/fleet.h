#ifndef GRANULA_GRANULA_LIVE_FLEET_H_
#define GRANULA_GRANULA_LIVE_FLEET_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "granula/analysis/chokepoint.h"
#include "granula/archive/repository.h"
#include "granula/live/alert_sink.h"
#include "granula/live/alerts.h"
#include "granula/live/clock.h"
#include "granula/live/record_source.h"
#include "granula/live/streaming_archiver.h"
#include "granula/model/performance_model.h"

namespace granula::core {

// The one live-monitoring loop: one StreamingArchiver + AlertTracker per
// job, all driven by Tick() — from the supervisor thread Start() spawns
// (the `granula fleet` daemon), or from the caller's own loop
// (`granula watch` is a one-job fleet it ticks itself). Jobs arrive two
// ways:
//
//  * Pull — AddSource() registers a RecordSource (local file or TCP
//    follower) the supervisor polls each tick. A file source that reports
//    rotation (the log shrank: the job restarted) restarts its job's
//    assembly; alert dedup state survives, since those were already seen.
//  * Push — Ingest() accepts a batch of parsed records (the serve stack's
//    POST /jobs/<name>/records route lands here from HTTP worker
//    threads); batches park in a bounded per-job queue the supervisor
//    drains. A full queue rejects the batch outright — explicit overload
//    shedding the transport maps to 429, never a silent drop.
//
// Fault isolation is the point: a job whose source disconnects, stalls,
// or dies is finalized on its own (complete when its root closed,
// kIncomplete otherwise, with a kStalledJob-style alert) while every
// other job keeps streaming. Drain() — SIGINT's path — finalizes every
// open archive into the output ArchiveRepository.
struct FleetOptions {
  StreamingArchiver::Options archiver;
  ChokepointOptions chokepoints;
  // Pending pushed records per job; past it, Ingest() sheds.
  size_t queue_capacity = 8192;
  // Seconds without a new record before a job raises its (single)
  // kStalledJob alert. 0 disables stall detection.
  double stall_timeout_s = 0;
  double poll_interval_ms = 20;  // supervisor tick
  MonotonicClock now;            // injectable for deterministic stall tests
  // Where finalized archives land. Empty: archives are kept in memory
  // only (Archive(), for tests and embedding).
  std::string repo_dir;
  // Resolves the model for a job registered with a model name (push
  // registration's ?model=...). Null: every job uses the default model.
  std::function<Result<PerformanceModel>(const std::string&)> model_resolver;
};

class FleetSupervisor {
 public:
  enum class JobState : uint8_t {
    kStreaming,   // records flowing (or quietly between records)
    kStalled,     // stall_timeout_s passed without progress; still open
    kComplete,    // root closed by a real record; archive saved
    kIncomplete,  // finalized without a closed root (lost source / drain)
  };
  static const char* JobStateName(JobState state);
  using ArchiverStats = StreamingArchiver::Stats;

  struct JobStatus {
    std::string name;
    std::string transport;  // "push", "file:...", "tcp://..."
    JobState state = JobState::kStreaming;
    uint64_t records = 0;
    uint64_t malformed = 0;
    uint64_t shed_batches = 0;   // push batches rejected by the full queue
    uint64_t shed_records = 0;
    uint64_t queued = 0;         // pushed records waiting for the supervisor
    uint64_t alerts = 0;
    uint64_t reconnects = 0;     // pull sources only
    uint64_t rotations = 0;      // file sources: assembly restarts
    bool source_lost = false;
    std::string archive_name;    // repository name once finalized
    std::string error;           // save/model failure, if any
    ArchiverStats archiver;  // the current assembly's counters
    SimTime watermark;       // and its stream watermark
  };

  struct Stats {
    uint64_t jobs = 0;
    uint64_t active = 0;      // streaming or stalled
    uint64_t complete = 0;
    uint64_t incomplete = 0;
    uint64_t records = 0;
    uint64_t malformed = 0;
    uint64_t shed_batches = 0;
    uint64_t shed_records = 0;
    uint64_t alerts = 0;
    uint64_t ticks = 0;       // supervisor loop iterations
  };

  FleetSupervisor(PerformanceModel default_model, FleetOptions options);
  ~FleetSupervisor();

  FleetSupervisor(const FleetSupervisor&) = delete;
  FleetSupervisor& operator=(const FleetSupervisor&) = delete;

  // Sinks receive every alert from every job (LiveAlert::job names the
  // origin). Register before Start(); sinks outlive the supervisor's use
  // of them (shared_ptr). OnAlert is only ever called from Tick() and
  // Drain(), never concurrently.
  void AddAlertSink(std::shared_ptr<AlertSink> sink);

  // Registers a pull job. Fails on a duplicate name, a bad name, or an
  // unresolvable model. Callable before or after Start().
  Status AddSource(const std::string& job,
                   std::unique_ptr<RecordSource> source,
                   const std::string& model_name = "");

  // Push ingest (thread-safe; called from HTTP workers). Registers the
  // job on first contact. Returns the queued count, or:
  //   kInvalidArgument     bad job name / unresolvable model
  //   kFailedPrecondition  job already finalized (late duplicate batch)
  //   kOutOfRange          queue full — shed; transport answers 429
  Result<size_t> Ingest(const std::string& job,
                        std::vector<LogRecord> records, uint64_t malformed,
                        const std::string& model_name = "");

  // One pass of the loop: every open job drains its push queue, polls its
  // source, re-snapshots and alerts when records arrived, then finalizes
  // (root closed, source lost) or checks for a stall. Counts in
  // stats().ticks. Call it either from your own loop or via Start(),
  // never both.
  void Tick();
  // Spawns the supervisor thread: Tick() every poll_interval_ms.
  Status Start();
  // Stops the loop and finalizes every open job (incomplete unless its
  // root already closed), then flushes every sink. Idempotent.
  void Drain();

  bool running() const { return running_.load(std::memory_order_acquire); }
  Stats stats() const;
  std::vector<JobStatus> JobStatuses() const;

  // The newest archive of `job`: its latest in-flight snapshot (the one
  // its alerts were raised on) until it finalizes, the final archive
  // after (kept whether or not repo_dir also saved it). NotFound until a
  // snapshot exists.
  Result<PerformanceArchive> Archive(const std::string& job) const;

  // Every alert raised for `job` so far, each with its latest metric (a
  // raised finding keeps updating while the job runs). The trackers
  // belong to the ticking thread: call this from the thread that calls
  // Tick(), or after Drain().
  std::vector<LiveAlert> Alerts(const std::string& job) const;

 private:
  struct Job {
    explicit Job(PerformanceModel job_model) : model(std::move(job_model)) {}

    std::string name;
    std::string transport;
    std::unique_ptr<RecordSource> source;  // null for push jobs
    PerformanceModel model;  // to restart assembly on rotation
    std::optional<StreamingArchiver> archiver;
    AlertTracker alerts;
    std::deque<LogRecord> queue;  // pushed records awaiting the supervisor
    JobState state = JobState::kStreaming;
    uint64_t records = 0;
    uint64_t malformed = 0;
    uint64_t shed_batches = 0;
    uint64_t shed_records = 0;
    uint64_t reconnects = 0;
    uint64_t rotations = 0;
    uint64_t alert_count = 0;
    double last_progress_s = 0;
    bool stall_raised = false;
    bool source_lost = false;
    bool finalized = false;
    std::string archive_name;
    std::string error;
    ArchiverStats archiver_stats;  // copies for JobStatuses()
    SimTime watermark;
    std::optional<PerformanceArchive> archive;  // newest snapshot
  };

  // Creates (or finds) the job entry; caller holds mu_.
  Result<Job*> FindOrCreateJobLocked(const std::string& name,
                                     const std::string& transport,
                                     const std::string& model_name);
  // One tick of one job; caller does NOT hold mu_ (the ticking thread is
  // the only archiver/tracker/source toucher, so only queue, counter and
  // snapshot access locks).
  void TickJob(Job* job, double now_s);
  // Moves the job's pushed records and one source poll into its archiver
  // (restarting assembly on rotation). True when anything arrived.
  bool PullRecords(Job* job);
  void FinalizeJob(Job* job, bool source_lost_alert);
  void EmitAlerts(Job* job, std::vector<LiveAlert> fresh);

  PerformanceModel default_model_;
  FleetOptions options_;
  MonotonicClock now_;
  std::optional<ArchiveRepository> repo_;

  mutable std::mutex mu_;  // jobs_ map + every Job's queue/counters/state
  std::map<std::string, std::unique_ptr<Job>> jobs_;
  uint64_t ticks_ = 0;

  std::vector<std::shared_ptr<AlertSink>> sinks_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  bool drained_ = false;
  std::thread supervisor_;
};

}  // namespace granula::core

#endif  // GRANULA_GRANULA_LIVE_FLEET_H_
