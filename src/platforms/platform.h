#ifndef GRANULA_PLATFORMS_PLATFORM_H_
#define GRANULA_PLATFORMS_PLATFORM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "algorithms/api.h"
#include "cluster/cluster.h"
#include "cluster/monitor.h"
#include "common/result.h"
#include "granula/archive/archive.h"
#include "granula/monitor/job_logger.h"
#include "graph/graph.h"
#include "sim/faults.h"

namespace granula::platform {

// Actor id of every engine's Job operations (the job root and its phases).
inline constexpr char kJobId[] = "job-0";

// Execution parameters common to both simulated platforms.
struct JobConfig {
  // Workers (Giraph containers / PowerGraph ranks); one per node.
  uint32_t num_workers = 8;
  // Parallel compute threads per worker (bounded by cores per node).
  int compute_threads = 8;
  // Environment-monitor sampling interval (paper Figs. 6-7 use ~1s).
  SimTime monitor_interval = SimTime::Seconds(1.0);
  // PowerGraph only: use random (hash) vertex-cut instead of the greedy
  // heuristic — the baseline the PowerGraph paper compares against; used
  // by the partitioning ablation bench.
  bool use_random_vertex_cut = false;
  // Live monitoring (granula watch): when non-empty, every log record is
  // also appended to this JSONL file the moment it is emitted, flushed
  // per record so a concurrent tailer sees the job as it runs.
  std::string live_log_path;
  // Wall-clock pause after each streamed record, in microseconds. Paces
  // the live log for tail-while-running tests and demos; virtual time
  // (and thus the archive) is unaffected.
  uint64_t live_log_delay_us = 0;
  // Deterministic fault plan (sim/faults.h). Empty ⇒ the fault machinery
  // is fully inert: no checkpoints, no retries, no extra operations, and
  // logs/archives are byte-identical to a pre-fault-subsystem run.
  sim::FaultPlan faults;
};

// Everything a run produces: the algorithm output (for validation against
// the reference implementations), the Granula monitoring output (platform
// log + environment log), and summary counters.
struct JobResult {
  std::vector<double> vertex_values;
  std::vector<core::LogRecord> records;
  std::vector<core::EnvironmentRecord> environment;
  uint64_t supersteps = 0;
  double total_seconds = 0;
  uint64_t network_bytes = 0;
  // Failure bookkeeping. `completed` is false when the fault plan
  // exhausted the retry policy: the job root never closes and the log
  // archives with status kIncomplete.
  bool completed = true;
  uint64_t failed_attempts = 0;
  uint64_t restarts = 0;
  double lost_seconds = 0;
};

// Converts monitor samples to archive environment records.
std::vector<core::EnvironmentRecord> ToEnvironmentRecords(
    const std::vector<cluster::UtilizationSample>& samples);

// Runs `threads` parallel slices of `total` CPU work on `cpu` and joins.
// Models a multi-threaded phase of a worker process.
sim::Task<> RunOnThreads(sim::Simulator* sim, sim::Cpu* cpu, SimTime total,
                         int threads);

// Installs the monitoring-side write-fault hook on `logger` when `faults`
// contains kLogWrite specs; no-op otherwise. `faults` must outlive the
// logger's use (platforms pass their own JobConfig copy).
void InstallLogWriteFaults(core::JobLogger* logger,
                           const sim::FaultPlan& faults);

}  // namespace granula::platform

#endif  // GRANULA_PLATFORMS_PLATFORM_H_
