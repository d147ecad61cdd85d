#ifndef GRANULA_GRANULA_LIVE_WATCH_H_
#define GRANULA_GRANULA_LIVE_WATCH_H_

#include <cstdint>
#include <cstdio>
#include <string>

#include "common/result.h"
#include "granula/archive/archive.h"
#include "granula/live/fleet.h"
#include "granula/model/performance_model.h"

namespace granula::core {

// Configuration for `granula watch`: the view's own knobs plus the
// one-job fleet underneath it.
struct WatchOptions {
  std::string log_path;  // JSONL platform log to follow
  double timeout_s = 30;  // give up when the job never completes
  int max_depth = 3;      // tree depth in the live view
  bool ansi = false;   // redraw the terminal in place (interactive use)
  bool quiet = false;  // suppress periodic status lines (alerts still print)
  // When non-empty, every alert is also appended to this JSONL file
  // (one JSON object per line, flushed per alert).
  std::string alert_jsonl_path;
  // Archiver, chokepoints, stall timeout, poll interval, and the clock
  // behind both the stall detector and timeout_s (tests inject a fake so
  // stall cases need no real sleeping). repo_dir stays empty: watch
  // keeps its archive in memory.
  FleetOptions fleet;
};

struct WatchSummary {
  uint64_t records_ingested = 0;
  uint64_t snapshots = 0;  // polls that brought records (re-snapshots)
  uint64_t alerts = 0;            // distinct alerts raised
  uint64_t in_flight_alerts = 0;  // raised before the job completed
  uint64_t malformed_lines = 0;
  uint64_t rotations = 0;
  uint64_t stall_alerts = 0;  // kStalledJob alerts
  bool completed = false;  // job root finalized before the timeout
  FleetSupervisor::ArchiverStats archiver_stats;
  // The final archive when the job completed; otherwise the last
  // watermark snapshot (root may be absent when nothing was ever read).
  PerformanceArchive archive;
};

// Watches `options.log_path` as a one-job fleet (job "watch", a
// FileRecordSource): assembles the archive online, raises deduplicated
// choke-point and stall alerts while the job runs, and renders the final
// tree to `out` when the job completes (or the timeout passes). `out` may
// be null for headless use (the summary still carries the archive and
// alert counts). Returns the summary either way — a timeout is reported
// via `summary.completed`, not an error status.
Result<WatchSummary> WatchLog(const PerformanceModel& model,
                              const WatchOptions& options, std::FILE* out);

}  // namespace granula::core

#endif  // GRANULA_GRANULA_LIVE_WATCH_H_
