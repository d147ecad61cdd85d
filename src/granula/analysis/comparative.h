#ifndef GRANULA_GRANULA_ANALYSIS_COMPARATIVE_H_
#define GRANULA_GRANULA_ANALYSIS_COMPARATIVE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "granula/analysis/regression.h"
#include "granula/archive/archive.h"
#include "granula/archive/repository.h"
#include "granula/archive/view.h"

namespace granula::core {

// Multi-archive comparison over a sweep repository — the paper's Fig. 5
// per-phase breakdown generalized to N platforms × M workloads, plus
// scaling curves across graph scales and a regression gate that diffs
// each job exactly as CompareArchives does. Everything here consumes archives only: the sweep can
// be re-analyzed (or diffed against a months-old baseline) without
// re-running a single job.

// Everything the comparative report and the regression gate need from one
// sweep archive, reduced during a zero-copy scan (no PerformanceArchive is
// materialized). A summary holds no tree: the axis fields and root phases
// take a few hundred bytes, and the gate's `flattened` table one path and
// one 24-byte row per operation it keeps — at `max_depth` 0, the gate's
// and perfbench's default, that is every operation of the archive, in two
// allocations.
struct SweepSummary {
  std::string name;  // repository name
  std::string platform;
  std::string algorithm;
  std::string graph;
  std::string fault;
  uint32_t nodes = 0;
  uint64_t graph_vertices = 0;
  bool has_root = false;
  bool complete = true;
  double total_seconds = 0;  // root duration; 0 when !has_root
  // Root children as (name, seconds) in child order. Duplicate names are
  // deliberately NOT summed here — BuildComparativeReport does that.
  std::vector<std::pair<std::string, double>> phases;
  // FlattenArchiveView table for the regression gate, cut at the
  // `max_depth` the summaries were scanned with.
  FlatOps flattened;
};

// One summary from an open view. `max_depth` bounds the flatten table
// (0 = all levels), mirroring RegressionOptions::max_depth.
SweepSummary SummarizeArchiveView(std::string name, const ArchiveView& view,
                                  int max_depth);

// Summaries for every archive of `repo`, reduced via
// ArchiveRepository::ScanAll (parallel, zero-copy),
// sorted by name — the input of the report and the gate below. Archives
// without sweep metadata (foreign saves in a shared repository) still
// summarize; their axis fields are simply empty.
Result<std::vector<SweepSummary>> ScanSweepSummaries(
    const ArchiveRepository& repo, int max_depth);

// The comparative report: one per-phase table per workload, plus scaling
// curves along the graph axis.
struct ComparativeReport {
  struct Row {
    std::string platform;
    std::string archive_name;
    double total_seconds = 0;
    bool complete = true;
    // Parallel to WorkloadTable::phases; 0 when the platform's archive
    // has no such phase.
    std::vector<double> phase_seconds;
  };
  // One workload = (algorithm, graph, nodes, fault); rows = platforms.
  struct WorkloadTable {
    std::string algorithm;
    std::string graph;
    std::string fault;
    uint32_t nodes = 0;
    // Union of the platforms' top-level phases (root children), in
    // first-seen row order. Duplicate-named phases (e.g. FailedAttempt
    // repetitions) are summed.
    std::vector<std::string> phases;
    std::vector<Row> rows;
  };
  struct ScalingPoint {
    std::string graph;
    uint64_t vertices = 0;
    double seconds = 0;
  };
  // One curve = (platform, algorithm, nodes, fault) across >= 2 graphs,
  // points sorted by vertex count.
  struct ScalingCurve {
    std::string platform;
    std::string algorithm;
    std::string fault;
    uint32_t nodes = 0;
    std::vector<ScalingPoint> points;
  };

  std::vector<WorkloadTable> workloads;  // sorted by (algo, graph, nodes)
  std::vector<ScalingCurve> scaling;     // sorted by (platform, algo)
};

ComparativeReport BuildComparativeReport(
    const std::vector<SweepSummary>& summaries);

// The regression gate: candidate sweep vs. committed baseline sweep,
// jobs matched by archive name, each pair diffed with CompareArchives.
struct SweepRegressionSummary {
  struct JobDelta {
    std::string name;
    RegressionReport report;
  };
  std::vector<JobDelta> jobs;        // jobs present in both sweeps
  std::vector<std::string> missing;  // baseline-only names
  std::vector<std::string> added;    // candidate-only names

  bool HasRegressions() const {
    for (const JobDelta& job : jobs) {
      if (job.report.HasRegressions()) return true;
    }
    return false;
  }
  uint64_t TotalRegressions() const {
    uint64_t n = 0;
    for (const JobDelta& job : jobs) n += job.report.regressions.size();
    return n;
  }
};

// Each matched pair is diffed with CompareFlattened; the summaries'
// `flattened` tables must have been scanned with max_depth ==
// options.max_depth. Per job this equals CompareArchives over the two
// loaded archives.
SweepRegressionSummary CompareSweepSummaries(
    const std::vector<SweepSummary>& baseline,
    const std::vector<SweepSummary>& candidate,
    const RegressionOptions& options);

}  // namespace granula::core

#endif  // GRANULA_GRANULA_ANALYSIS_COMPARATIVE_H_
