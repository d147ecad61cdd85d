#ifndef GRANULA_SIM_FAULTS_H_
#define GRANULA_SIM_FAULTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/sim_time.h"

namespace granula::sim {

// Deterministic fault injection for simulated platform runs.
//
// A FaultPlan is pure data: a list of faults that *will* happen, fixed
// before the job starts. Platforms consult it through FaultInjector at
// well-defined decision points (superstep start, task launch, storage
// read, log emission) and react the way the real platform would —
// re-attempt, checkpoint/restart, or abort-and-retry. Because the plan
// is data and the injector is a pure function of it, a faulted run stays
// a deterministic function of (config, seed): same plan + same
// GRANULA_HOST_THREADS ⇒ byte-identical logs and archives.

enum class FaultKind : uint8_t {
  // A worker process dies. Giraph recovers at superstep granularity via
  // checkpoint/restart; the abort-and-retry platforms (PowerGraph,
  // PGX.D, GraphMat) lose the whole attempt.
  kWorkerCrash,
  // A single task attempt fails (Hadoop map task, Giraph load split).
  // Recovered by re-attempting just that task.
  kTaskFailure,
  // A transient storage error during a read; retried in place after a
  // backoff, inside the surrounding operation.
  kStorageError,
  // A monitoring-side fault: the log write for a chosen record is
  // dropped or torn. The job itself is unaffected — this exercises the
  // lint/repair and quarantine pipeline downstream.
  kLogWrite,
  // Network faults for the streaming/fleet transports (granula feed's
  // fault hook and the webhook tests): a refused connection, a mid-body
  // reset after a byte budget, and a slow peer that stalls before
  // answering. The simulated platforms ignore these kinds.
  kNetRefuse,
  kNetReset,
  kNetSlow,
};

// What happens to the log line of a kLogWrite fault.
enum class LogWriteFault : uint8_t {
  kNone,
  kDrop,      // record never persisted (agent died before the write)
  kTruncate,  // line written without its tail + newline (torn write)
};

struct FaultSpec {
  FaultKind kind = FaultKind::kWorkerCrash;
  // Victim worker / rank / task index (kWorkerCrash, kTaskFailure,
  // kStorageError).
  uint32_t worker = 0;
  // Superstep / iteration at which the fault strikes. For load-phase
  // faults this is ignored (load happens once, before step 0).
  uint64_t step = 0;
  // How many consecutive attempts fail before one succeeds. Attempts
  // 0 .. failures-1 fail; attempt `failures` succeeds (if the retry
  // policy allows that many).
  uint32_t failures = 1;
  // Virtual work performed before the crash is detected — the part of
  // the attempt that is genuinely lost.
  SimTime work_before_crash = SimTime::Millis(400);
  // kLogWrite only: the seq of the record to corrupt, and how.
  uint64_t log_seq = 0;
  LogWriteFault log_effect = LogWriteFault::kDrop;
  // Network faults only: kNetReset's bytes-before-reset, kNetSlow's stall
  // in milliseconds (kNetRefuse ignores it).
  uint64_t net_value = 0;
};

// Time for the master/coordinator to notice a dead worker (heartbeat
// timeout) — added to every crash's lost time.
inline constexpr SimTime kDetectTimeout = SimTime::Seconds(2.0);
// Abort-and-retry platforms: cluster resubmission latency on top of the
// backoff.
inline constexpr SimTime kResubmitDelay = SimTime::Millis(900);

// How a platform reacts to failures. Carried inside the plan so wiring
// a faulted run needs exactly one new JobConfig field.
struct RetryPolicy {
  // Total attempts allowed per decision point (first try included).
  uint32_t max_attempts = 4;
  // Exponential backoff between attempts: base * factor^retries.
  SimTime backoff_base = SimTime::Millis(600);
  double backoff_factor = 2.0;
  // Giraph: checkpoint every k supersteps (k=0 disables checkpoints
  // even under a non-empty plan).
  uint64_t checkpoint_interval = 2;
};

class FaultPlan {
 public:
  void Add(FaultSpec spec) { specs_.push_back(spec); }
  bool empty() const { return specs_.empty(); }
  const std::vector<FaultSpec>& specs() const { return specs_; }

  RetryPolicy retry;

  // A seeded random plan: `num_faults` worker crashes / task failures /
  // storage errors spread over workers [0, num_workers) and steps
  // [0, max_step]. Deterministic in `seed`.
  static FaultPlan Random(uint64_t seed, uint32_t num_workers,
                          uint64_t max_step, uint32_t num_faults);

  // Parses the textual fault grammar shared by `granula run --fault=` and
  // the sweep-config "faults" entries: comma-separated SPECs of
  //   crash:WORKER:STEP[:N]   worker crash at a superstep/iteration
  //   task:WORKER:STEP[:N]    single task-attempt failure
  //   storage:WORKER[:N]      transient read error, retried in place
  //   logdrop:SEQ             the log record with that seq is never written
  //   logtrunc:SEQ            ... is written torn (half line, no newline)
  //   netrefuse[:N]           next N connections are refused outright
  //   netreset:BYTES[:N]      next N connections reset after BYTES bytes
  //   netslow:MS[:N]          next N connections stall MS ms before data
  // N = how many consecutive attempts fail (default 1). Numeric fields are
  // parsed strictly ("crash:x:1" is an error, not worker 0). The returned
  // plan carries the default RetryPolicy; callers adjust it afterwards.
  static Result<FaultPlan> Parse(const std::string& text);

 private:
  std::vector<FaultSpec> specs_;
};

// Read-only view a platform queries at its decision points. Holds no
// mutable state: the *platform* tracks which attempt it is on, so the
// injector stays a pure function and replays identically under any host
// thread count.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan) : plan_(&plan) {}

  bool enabled() const { return !plan_->empty(); }
  const RetryPolicy& policy() const { return plan_->retry; }

  // Abort-and-retry platforms: the fault (if any) that dooms job-level
  // attempt `attempt`. Crash/task specs are consumed in (step, worker)
  // order; a spec with failures=N dooms N consecutive attempts.
  const FaultSpec* JobFault(uint32_t attempt) const;

  // Giraph master: the crash (if any) that dooms attempt `attempt` of
  // superstep `step`.
  const FaultSpec* CrashAt(uint64_t step, uint32_t attempt) const;

  // Hadoop: the fault (if any) that dooms attempt `attempt` of task
  // `worker` in iteration `step`. Worker crashes surface as failed task
  // attempts (YARN reschedules the container).
  const FaultSpec* TaskFault(uint32_t worker, uint64_t step,
                             uint32_t attempt) const;

  // Load-phase faults for `worker` (task failures and storage errors;
  // step is ignored — load precedes step 0).
  const FaultSpec* LoadFault(uint32_t worker, uint32_t attempt) const;

  // Storage errors only, for in-place read retries.
  const FaultSpec* StorageFault(uint32_t worker, uint32_t attempt) const;

  // Backoff before retry number `retries` (0-based).
  SimTime Backoff(uint32_t retries) const;

  // Monitoring-side: the effect (if any) on the log record with
  // sequence number `seq`.
  LogWriteFault LogFaultFor(uint64_t seq) const;

  // Transport-side: the network fault (if any) covering connection number
  // `connection` (0-based accept order). Specs are consumed in
  // declaration order, each covering `failures` consecutive connections —
  // "netrefuse:2,netreset:64" refuses connections 0-1 and resets
  // connection 2 after 64 bytes.
  const FaultSpec* NetFault(uint32_t connection) const;

 private:
  const FaultPlan* plan_;
};

}  // namespace granula::sim

#endif  // GRANULA_SIM_FAULTS_H_
