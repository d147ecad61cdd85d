#ifndef GRANULA_GRANULA_LIVE_ALERTS_H_
#define GRANULA_GRANULA_LIVE_ALERTS_H_

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "granula/analysis/chokepoint.h"

namespace granula::core {

// One alert surfaced while the watched job was still running.
struct LiveAlert {
  Finding finding;
  // True when the snapshot that triggered the alert still had the job
  // root in flight — i.e. the analyst saw it before the job finished.
  bool in_flight = false;
  uint64_t snapshot_index = 0;  // which Snapshot() raised it first
  // The job the alert belongs to, stamped by the fleet supervisor so one
  // shared sink can serve many jobs (`granula watch`'s job is "watch").
  // Empty for alerts raised outside a fleet.
  std::string job;
};

// Incremental choke-point alerting over a stream of archive snapshots.
// Each Update() runs the batch detectors on the latest snapshot and
// returns only the findings not alerted before, keyed by
// (kind, operation): a LoadGraph dominant-phase alert fires once, not on
// every poll, while its metric keeps updating in `alerts()`.
class AlertTracker {
 public:
  explicit AlertTracker(ChokepointOptions options = {})
      : options_(options) {}

  // Analyzes `archive` (a StreamingArchiver snapshot); returns the newly
  // raised alerts, in detector severity order.
  std::vector<LiveAlert> Update(const PerformanceArchive& archive);

  // Raises a finding synthesized outside the detectors (e.g. the fleet's
  // wall-clock stall detector). Deduplicated by the same
  // (kind, operation) key; returns the alert when it is new.
  std::optional<LiveAlert> RaiseExternal(Finding finding, bool in_flight);

  // Every alert raised so far, in the order first raised.
  const std::vector<LiveAlert>& alerts() const { return alerts_; }
  uint64_t snapshots_analyzed() const { return snapshots_; }

 private:
  ChokepointOptions options_;
  std::set<std::pair<int, std::string>> seen_;  // (kind, operation)
  std::vector<LiveAlert> alerts_;
  uint64_t snapshots_ = 0;
};

}  // namespace granula::core

#endif  // GRANULA_GRANULA_LIVE_ALERTS_H_
