#include "granula/analysis/chokepoint.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/strings.h"

namespace granula::core {

std::string_view FindingKindName(FindingKind kind) {
  switch (kind) {
    case FindingKind::kDominantPhase:
      return "dominant_phase";
    case FindingKind::kIdleDuringPhase:
      return "idle_during_phase";
    case FindingKind::kCpuSaturatedPhase:
      return "cpu_saturated_phase";
    case FindingKind::kSingleNodeHotspot:
      return "single_node_hotspot";
    case FindingKind::kWorkerImbalance:
      return "worker_imbalance";
    case FindingKind::kSynchronizationOverhead:
      return "synchronization_overhead";
    case FindingKind::kStragglerNode:
      return "straggler_node";
    case FindingKind::kFailureRecovery:
      return "failure_recovery";
    case FindingKind::kStalledJob:
      return "stalled_job";
  }
  return "unknown";
}

namespace {

// Detector thresholds.
constexpr double kIdleCpuFraction = 0.10;       // of cluster capacity
constexpr double kSaturatedCpuFraction = 0.75;  // of cluster capacity
// A node is a hotspot when its share of the phase's CPU time is at least
// this multiple of the fair share (1/num_nodes), and it averages at least
// `kHotspotMinNodeCores` busy cores over the phase.
constexpr double kHotspotFairShareMultiple = 3.5;
constexpr double kHotspotMinNodeCores = 1.0;
// slowest/fastest local superstep
constexpr double kImbalanceRatio = 1.5;
// non-compute share of supersteps
constexpr double kSyncOverheadFraction = 0.30;
// node mean vs cluster mean
constexpr double kStragglerRatio = 1.25;
// Failure recovery: share of the job lost to FailedAttempt/Restart
// operations that upgrades the finding from info to warning/critical.
constexpr double kLostTimeWarningFraction = 0.05;
constexpr double kLostTimeCriticalFraction = 0.25;

// Everything the detectors read, reduced from either a materialized tree
// or an ArchiveView by one walk body (GatherTree). The detector bodies
// below consume only this struct, so the two AnalyzeChokepoints overloads
// cannot diverge.
struct ChokepointInputs {
  double job_seconds = 0;
  std::string root_name;        // mission_id falling back to mission_type
  std::string root_mission_id;  // raw (superstep paths use it unfallen)
  struct Phase {
    std::string path;          // "<root_name>/<phase name>"
    std::string mission_type;  // the detectors' message vocabulary
    double seconds = 0;
    double begin = 0, end = 0;  // StartTime/EndTime in seconds
  };
  std::vector<Phase> phases;
  struct EnvSample {
    uint32_t node = 0;
    std::string hostname;
    double time_seconds = 0;
    double cpu_seconds_per_second = 0;
  };
  std::vector<EnvSample> environment;
  struct Superstep {
    std::string mission_id;
    double imbalance = -1;  // WorkerImbalance info, -1 when absent
  };
  std::vector<Superstep> supersteps;  // Master/Superstep, pre-order
  double local_total = 0;    // sum of Worker/LocalSuperstep durations
  double compute_total = 0;  // sum of Worker/Compute durations
  std::map<std::string, double> per_worker_compute;  // by actor_id
  double lost_seconds = 0;  // FailedAttempt/Restart durations
  uint64_t attempts = 0, restarts = 0;
  bool stalled = false;  // incomplete status and no root InFlight info
};

// The gathers below are templates over an op cursor — TreeOp for a
// materialized tree, ArchiveView::Op for mapped bytes — so each walk has
// a single body.

// Sums the durations of FailedAttempt/Restart operations anywhere in the
// tree. Matched subtrees are not descended into: a failed attempt's
// children are the replayed work, already covered by its own duration.
template <typename OpCursor>
void SumFailures(const OpCursor& op, ChokepointInputs* inputs) {
  if (op.mission_type() == "FailedAttempt") {
    inputs->lost_seconds += op.Duration().seconds();
    ++inputs->attempts;
    return;
  }
  if (op.mission_type() == "Restart") {
    inputs->lost_seconds += op.Duration().seconds();
    ++inputs->restarts;
    return;
  }
  for (OpCursor child = op.FirstChild(); child; child = child.NextSibling()) {
    SumFailures(child, inputs);
  }
}

template <typename OpCursor>
void GatherSupersteps(const OpCursor& op, ChokepointInputs* inputs) {
  if (op.actor_type() == "Master" && op.mission_type() == "Superstep") {
    inputs->supersteps.push_back({std::string(op.mission_id()),
                                  op.InfoNumber("WorkerImbalance", -1)});
  } else if (op.actor_type() == "Worker" &&
             op.mission_type() == "LocalSuperstep") {
    inputs->local_total += op.Duration().seconds();
  } else if (op.actor_type() == "Worker" && op.mission_type() == "Compute") {
    inputs->compute_total += op.Duration().seconds();
    inputs->per_worker_compute[std::string(op.actor_id())] +=
        op.Duration().seconds();
  }
  for (OpCursor child = op.FirstChild(); child; child = child.NextSibling()) {
    GatherSupersteps(child, inputs);
  }
}

// The operation-tree half of the inputs: phases, supersteps, failures and
// the stall flag. The caller adds the environment samples.
template <typename OpCursor>
ChokepointInputs GatherTree(const OpCursor& root, ArchiveStatus status) {
  ChokepointInputs inputs;
  inputs.job_seconds = root.Duration().seconds();
  inputs.root_name = std::string(root.name());
  inputs.root_mission_id = std::string(root.mission_id());
  for (OpCursor phase = root.FirstChild(); phase;
       phase = phase.NextSibling()) {
    inputs.phases.push_back({inputs.root_name + "/" + std::string(phase.name()),
                             std::string(phase.mission_type()),
                             phase.Duration().seconds(),
                             phase.StartTime().seconds(),
                             phase.EndTime().seconds()});
  }
  GatherSupersteps(root, &inputs);
  SumFailures(root, &inputs);
  inputs.stalled =
      status == ArchiveStatus::kIncomplete && !root.HasInfo("InFlight");
  return inputs;
}

// CPU-seconds per node within (begin, end], plus the total.
struct PhaseCpu {
  std::map<uint32_t, double> per_node;
  std::map<uint32_t, std::string> hostname;
  double total = 0;
  double window = 0;  // sampling interval estimate (for CPU-s conversion)
};

PhaseCpu CpuWithin(const ChokepointInputs& inputs, double begin, double end) {
  PhaseCpu cpu;
  // Estimate the sampling interval from consecutive sample times of node 0.
  double previous = -1;
  for (const ChokepointInputs::EnvSample& r : inputs.environment) {
    if (r.node != 0) continue;
    if (previous >= 0) {
      cpu.window = r.time_seconds - previous;
      break;
    }
    previous = r.time_seconds;
  }
  if (cpu.window <= 0) cpu.window = 1.0;
  for (const ChokepointInputs::EnvSample& r : inputs.environment) {
    if (r.time_seconds > begin && r.time_seconds <= end + 1e-9) {
      double cpu_seconds = r.cpu_seconds_per_second * cpu.window;
      cpu.per_node[r.node] += cpu_seconds;
      cpu.hostname[r.node] = r.hostname;
      cpu.total += cpu_seconds;
    }
  }
  return cpu;
}

void DetectPhaseFindings(const ChokepointInputs& inputs,
                         const ChokepointOptions& options,
                         std::vector<Finding>* findings) {
  double job_seconds = inputs.job_seconds;
  if (job_seconds <= 0) return;
  for (const ChokepointInputs::Phase& phase : inputs.phases) {
    double seconds = phase.seconds;
    double fraction = seconds / job_seconds;
    const std::string& path = phase.path;

    if (fraction >= options.dominant_phase_fraction) {
      findings->push_back(Finding{
          FindingKind::kDominantPhase, Severity::kCritical, path,
          StrFormat("%s takes %s of the job (%s of %s)",
                    phase.mission_type.c_str(),
                    HumanPercent(fraction).c_str(),
                    HumanSeconds(seconds).c_str(),
                    HumanSeconds(job_seconds).c_str()),
          fraction});
    }
    if (fraction < options.min_phase_fraction) continue;
    if (inputs.environment.empty()) continue;

    PhaseCpu cpu = CpuWithin(inputs, phase.begin, phase.end);
    if (options.cluster_cpu_capacity > 0 && seconds > 0) {
      double mean_fraction =
          cpu.total / (seconds * options.cluster_cpu_capacity);
      if (mean_fraction <= kIdleCpuFraction) {
        findings->push_back(Finding{
            FindingKind::kIdleDuringPhase, Severity::kWarning, path,
            StrFormat("CPUs are %s utilized during %s — the phase is bound "
                      "by latency or I/O waits, not compute",
                      HumanPercent(mean_fraction).c_str(),
                      phase.mission_type.c_str()),
            mean_fraction});
      } else if (mean_fraction >= kSaturatedCpuFraction) {
        findings->push_back(Finding{
            FindingKind::kCpuSaturatedPhase, Severity::kInfo, path,
            StrFormat("%s runs at %s of cluster CPU capacity — compute-"
                      "bound; a faster implementation would shorten it",
                      phase.mission_type.c_str(),
                      HumanPercent(mean_fraction).c_str()),
            mean_fraction});
      }
    }
    if (cpu.total > 0 && cpu.per_node.size() > 1) {
      auto hottest = std::max_element(
          cpu.per_node.begin(), cpu.per_node.end(),
          [](const auto& a, const auto& b) { return a.second < b.second; });
      double share = hottest->second / cpu.total;
      double fair_share = 1.0 / static_cast<double>(cpu.per_node.size());
      // A hotspot only matters when that node is genuinely working:
      // nearly idle phases trivially concentrate their negligible CPU
      // somewhere. Require the hottest node to average at least one busy
      // core over the phase (a PowerGraph-style sequential loader runs
      // several).
      double hottest_mean_cores = hottest->second / seconds;
      if (share >= kHotspotFairShareMultiple * fair_share &&
          hottest_mean_cores >= kHotspotMinNodeCores) {
        findings->push_back(Finding{
            FindingKind::kSingleNodeHotspot, Severity::kCritical, path,
            StrFormat("%s of the CPU time in %s is on %s alone — the phase "
                      "does not use the distributed cluster",
                      HumanPercent(share).c_str(),
                      phase.mission_type.c_str(),
                      cpu.hostname[hottest->first].c_str()),
            share});
      }
    }
  }
}

void DetectSuperstepFindings(const ChokepointInputs& inputs,
                             std::vector<Finding>* findings) {
  // Worker imbalance per superstep-like operation (derived infos come from
  // the model; absent infos mean the model was too coarse — no findings).
  for (const ChokepointInputs::Superstep& step : inputs.supersteps) {
    if (step.imbalance >= kImbalanceRatio) {
      findings->push_back(Finding{
          FindingKind::kWorkerImbalance, Severity::kWarning,
          inputs.root_mission_id + "/ProcessGraph/" + step.mission_id,
          StrFormat("slowest worker in %s is %.2fx the fastest — load "
                    "imbalance leaves workers waiting at the barrier",
                    step.mission_id.c_str(), step.imbalance),
          step.imbalance});
    }
  }

  // Synchronization overhead + straggler detection across all supersteps.
  if (inputs.local_total > 0) {
    double overhead = 1.0 - inputs.compute_total / inputs.local_total;
    if (overhead >= kSyncOverheadFraction) {
      findings->push_back(Finding{
          FindingKind::kSynchronizationOverhead, Severity::kWarning,
          inputs.root_mission_id + "/ProcessGraph",
          StrFormat("%s of worker superstep time is outside Compute "
                    "(PreStep/Message/PostStep + barrier waits)",
                    HumanPercent(overhead).c_str()),
          overhead});
    }
  }
  if (inputs.per_worker_compute.size() > 1 && inputs.compute_total > 0) {
    double mean = inputs.compute_total / inputs.per_worker_compute.size();
    for (const auto& [worker, total] : inputs.per_worker_compute) {
      if (mean > 0 && total / mean >= kStragglerRatio) {
        findings->push_back(Finding{
            FindingKind::kStragglerNode, Severity::kCritical,
            inputs.root_mission_id + "/ProcessGraph",
            StrFormat("%s spends %.2fx the mean compute time across the "
                      "whole run — a consistently slow or overloaded node",
                      worker.c_str(), total / mean),
            total / mean});
      }
    }
  }
}

void DetectFailureFindings(const ChokepointInputs& inputs,
                           std::vector<Finding>* findings) {
  const std::string& path = inputs.root_name;
  if (inputs.attempts + inputs.restarts > 0) {
    double fraction = inputs.job_seconds > 0
                          ? inputs.lost_seconds / inputs.job_seconds
                          : 0.0;
    Severity severity = fraction >= kLostTimeCriticalFraction
                            ? Severity::kCritical
                        : fraction >= kLostTimeWarningFraction
                            ? Severity::kWarning
                            : Severity::kInfo;
    findings->push_back(Finding{
        FindingKind::kFailureRecovery, severity, path,
        StrFormat("%llu failed attempt(s) and %llu restart(s) lost %s to "
                  "failure recovery (%s of the job)",
                  static_cast<unsigned long long>(inputs.attempts),
                  static_cast<unsigned long long>(inputs.restarts),
                  HumanSeconds(inputs.lost_seconds).c_str(),
                  HumanPercent(fraction).c_str()),
        fraction});
  }
  // An in-flight streaming snapshot is incomplete by construction — only
  // flag archives whose root is genuinely never going to close.
  if (inputs.stalled) {
    findings->push_back(Finding{
        FindingKind::kStalledJob, Severity::kCritical, path,
        "the job root never closed — the run aborted (retries exhausted) "
        "or is still in flight",
        0.0});
  }
}

std::vector<Finding> Detect(const ChokepointInputs& inputs,
                            const ChokepointOptions& options) {
  std::vector<Finding> findings;
  DetectPhaseFindings(inputs, options, &findings);
  DetectSuperstepFindings(inputs, &findings);
  DetectFailureFindings(inputs, &findings);
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     return static_cast<int>(a.severity) >
                            static_cast<int>(b.severity);
                   });
  return findings;
}

}  // namespace

std::vector<Finding> AnalyzeChokepoints(const PerformanceArchive& archive,
                                        const ChokepointOptions& options) {
  if (archive.root == nullptr) return {};
  ChokepointInputs inputs =
      GatherTree(TreeOp(archive.root.get()), archive.status);
  for (const EnvironmentRecord& r : archive.environment) {
    inputs.environment.push_back(
        {r.node, r.hostname, r.time_seconds, r.cpu_seconds_per_second});
  }
  return Detect(inputs, options);
}

std::vector<Finding> AnalyzeChokepoints(const ArchiveView& view,
                                        const ChokepointOptions& options) {
  if (!view.has_root()) return {};
  ChokepointInputs inputs = GatherTree(view.root(), view.status());
  for (uint32_t i = 0; i < view.environment_count(); ++i) {
    ArchiveView::EnvRecord r = view.environment(i);
    inputs.environment.push_back({r.node, std::string(r.hostname),
                                  r.time_seconds, r.cpu_seconds_per_second});
  }
  return Detect(inputs, options);
}

std::string RenderFindings(const std::vector<Finding>& findings) {
  if (findings.empty()) return "no choke-points found\n";
  std::string out;
  for (const Finding& finding : findings) {
    const char* severity = finding.severity == Severity::kCritical
                               ? "CRITICAL"
                               : finding.severity == Severity::kWarning
                                     ? "WARNING "
                                     : "INFO    ";
    out += StrFormat("[%s] %-24s %s\n         %s\n", severity,
                     std::string(FindingKindName(finding.kind)).c_str(),
                     finding.operation.c_str(),
                     finding.description.c_str());
  }
  return out;
}

}  // namespace granula::core
