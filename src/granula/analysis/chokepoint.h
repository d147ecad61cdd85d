#ifndef GRANULA_GRANULA_ANALYSIS_CHOKEPOINT_H_
#define GRANULA_GRANULA_ANALYSIS_CHOKEPOINT_H_

#include <string>
#include <vector>

#include "granula/archive/archive.h"
#include "granula/archive/view.h"

namespace granula::core {

// Automated choke-point analysis over performance archives — the first of
// the paper's future-work directions (Section 6: "to further enhance
// Granula's ability to support performance analysis, for example on
// choke-point analysis and failure diagnosis").
//
// Each detector encodes one of the diagnostic patterns the paper walks
// through manually in Section 4; running them over an archive yields the
// same conclusions automatically (tested against the reference runs).

enum class FindingKind {
  kDominantPhase,       // one domain phase eats most of the runtime
  kIdleDuringPhase,     // CPUs idle through a long phase (latency-bound)
  kCpuSaturatedPhase,   // a phase pegs the cluster CPU (compute-bound)
  kSingleNodeHotspot,   // one node does (almost) all the work in a phase
  kWorkerImbalance,     // slowest/fastest worker ratio above threshold
  kSynchronizationOverhead,  // large share of processing outside compute
  kStragglerNode,       // one node consistently slower across supersteps
  kFailureRecovery,     // time lost to FailedAttempt/Restart operations
  kStalledJob,          // job root never closed (aborted or wedged run);
                        // also synthesized live by `granula watch` when a
                        // tailed log stops advancing
};

std::string_view FindingKindName(FindingKind kind);

enum class Severity { kInfo, kWarning, kCritical };

struct Finding {
  FindingKind kind;
  Severity severity = Severity::kInfo;
  std::string operation;    // path-ish location, e.g. "GiraphJob/LoadGraph"
  std::string description;  // human-readable diagnosis
  double metric = 0.0;      // the number that triggered the finding
};

struct ChokepointOptions {
  double dominant_phase_fraction = 0.40;
  // Total cluster CPU capacity in CPU-s/s (nodes x cores). Needed for the
  // idle/saturated detectors; <=0 disables them.
  double cluster_cpu_capacity = 0.0;
  // Phases shorter than this fraction of the job are not diagnosed.
  double min_phase_fraction = 0.05;
};

// Runs every detector; findings are ordered most-severe first. The two
// overloads share one detector body fed from a reduced inputs struct —
// the view overload walks the mapped columns directly (no tree is
// materialized; serve's /findings route runs on this) and produces
// findings identical to analyzing the decoded archive.
std::vector<Finding> AnalyzeChokepoints(const PerformanceArchive& archive,
                                        const ChokepointOptions& options);
std::vector<Finding> AnalyzeChokepoints(const ArchiveView& view,
                                        const ChokepointOptions& options);

// Renders findings as a terminal report.
std::string RenderFindings(const std::vector<Finding>& findings);

}  // namespace granula::core

#endif  // GRANULA_GRANULA_ANALYSIS_CHOKEPOINT_H_
