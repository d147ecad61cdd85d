// Microbenchmark for repository-wide zero-copy scans (DESIGN.md
// "Zero-copy scans"): the analysis fast path that reduces every archive
// of a sweep repository to its comparative-report summary and regression
// flatten table.
//
//   build/bench/micro_archive_scan [--benchmark_filter=...]
//
// Two paths over the same packed (GBA) repository of kArchives sweep
// archives:
//   - BM_MaterializeScan: the old way — full Load() per archive (every
//     operation row decoded onto the heap), then summarize;
//   - BM_ViewScan: ArchiveRepository::ScanAll + SummarizeArchiveView —
//     mmap'd columns walked in place, only root + phase rows touched.
// BM_SweepGate times the regression gate alone over two depth-0 scans.
//
// Acceptance points (read the ratios off BENCH_analysis.json):
//   - BM_ViewScan/pool:1 >= 5x BM_MaterializeScan (same work, same single
//     host thread; tools/run_bench.sh gates CI at >= 2x for headroom on
//     noisy runners);
//   - BM_ViewScan/pool:{1,2,8} scales near-linearly until the archive
//     count (not the byte count) or the host's core count runs out; on a
//     1-CPU runner wall time stays flat, i.e. the fan-out adds no
//     overhead (thread-count determinism is pinned by archive_scan_test).

#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "granula/analysis/chokepoint.h"
#include "granula/analysis/comparative.h"
#include "granula/archive/archiver.h"
#include "granula/archive/repository.h"
#include "granula/model/performance_model.h"
#include "granula/monitor/job_logger.h"

namespace granula::core {
namespace {

// One synthetic sweep archive shaped like a real superstep trace: a root
// with load/process phases and `supersteps` x `workers` worker rows —
// deep enough that full materialization is visibly more expensive than
// the summary's root + phases + superstep slice.
PerformanceArchive MakeArchive(const std::string& platform,
                               const std::string& graph, uint64_t vertices,
                               int supersteps, int workers) {
  SimTime now;
  JobLogger logger([&now] { return now; });
  OpId root = logger.StartOperation(kNoOp, "Job", "job-0", "Root");
  OpId load = logger.StartOperation(root, "Job", "job-0", "LoadGraph", "");
  now += SimTime::Millis(250);
  logger.EndOperation(load);
  OpId process = logger.StartOperation(root, "Job", "job-0", "ProcessGraph", "");
  for (int s = 0; s < supersteps; ++s) {
    OpId step = logger.StartOperation(process, "Master", "master", "Superstep",
                                      "Superstep-" + std::to_string(s));
    for (int w = 0; w < workers; ++w) {
      OpId work = logger.StartOperation(step, "Worker",
                                        "Worker-" + std::to_string(w),
                                        "Compute");
      logger.AddInfo(work, "MessagesSent", Json(int64_t{1000 + w}));
      now += SimTime::Millis(1);
      logger.EndOperation(work);
    }
    logger.EndOperation(step);
  }
  logger.EndOperation(process);
  logger.EndOperation(root);

  PerformanceModel model("bench");
  (void)model.AddRoot("Job", "Root");
  (void)model.AddOperation("Job", "LoadGraph", "Job", "Root");
  (void)model.AddOperation("Job", "ProcessGraph", "Job", "Root");
  (void)model.AddOperation("Master", "Superstep", "Job", "ProcessGraph");
  (void)model.AddOperation("Worker", "Compute", "Master", "Superstep");
  auto archive = Archiver().Build(model, logger.records(), {},
                                  {{"platform", platform},
                                   {"algorithm", "BFS"},
                                   {"graph", graph},
                                   {"graph_vertices", std::to_string(vertices)},
                                   {"nodes", "4"}});
  return std::move(archive).value();
}

constexpr int kArchives = 12;
constexpr int kSupersteps = 30;
constexpr int kWorkers = 32;
// The bench-gate depth: flatten tables cut at root + phases.
constexpr int kDepth = 2;

struct Fixture {
  std::string dir;
  std::vector<std::string> names;
};

const Fixture& Bench() {
  static const Fixture* fixture = [] {
    auto* f = new Fixture();
    f->dir = (std::filesystem::temp_directory_path() /
              "granula_bench_archive_scan")
                 .string();
    std::error_code ec;
    std::filesystem::remove_all(f->dir, ec);
    ArchiveRepository repo(f->dir);
    const char* platforms[] = {"Alpha", "Beta", "Gamma", "Delta"};
    const char* graphs[] = {"g-small", "g-medium", "g-large"};
    for (int i = 0; i < kArchives; ++i) {
      PerformanceArchive archive =
          MakeArchive(platforms[i % 4], graphs[i / 4],
                      1000u * (1u + static_cast<unsigned>(i / 4)),
                      kSupersteps, kWorkers);
      std::string name = "sweep-" + std::to_string(i);
      if (!repo.Save(archive, name).ok()) std::abort();
      f->names.push_back(std::move(name));
    }
    if (!repo.List().ok()) std::abort();  // persist the index
    return f;
  }();
  return *fixture;
}

// Equivalent of SummarizeArchiveView over a materialized tree — what the
// comparative report and gate consumed before the scan pipeline.
SweepSummary SummarizeTree(const std::string& name,
                           const PerformanceArchive& archive) {
  SweepSummary s;
  s.name = name;
  auto meta = [&](const char* key) {
    auto it = archive.job_metadata.find(key);
    return it == archive.job_metadata.end() ? std::string() : it->second;
  };
  s.platform = meta("platform");
  s.algorithm = meta("algorithm");
  s.graph = meta("graph");
  s.fault = meta("fault");
  Result<uint64_t> nodes = ParseUint64(meta("nodes").empty() ? "0" : meta("nodes"));
  s.nodes = nodes.ok() ? static_cast<uint32_t>(*nodes) : 0;
  Result<uint64_t> vertices =
      ParseUint64(meta("graph_vertices").empty() ? "0" : meta("graph_vertices"));
  s.graph_vertices = vertices.ok() ? *vertices : 0;
  s.has_root = archive.root != nullptr;
  s.complete = archive.status == ArchiveStatus::kComplete;
  if (s.has_root) {
    s.total_seconds = archive.root->Duration().seconds();
    for (const auto& child : archive.root->children) {
      s.phases.emplace_back(child->mission_id.empty() ? child->mission_type
                                                      : child->mission_id,
                            child->Duration().seconds());
    }
  }
  s.flattened = FlattenArchive(archive, kDepth);
  return s;
}

// ----------------------------------------------------- materialize -------

// The old analysis path: every archive fully decoded (all kSupersteps x
// kWorkers rows heap-allocated) before the summary is reduced.
void BM_MaterializeScan(benchmark::State& state) {
  const Fixture& f = Bench();
  ThreadPool::Global().Resize(1);
  ArchiveRepository repo(f.dir);
  for (auto _ : state) {
    std::vector<SweepSummary> summaries;
    for (const std::string& name : f.names) {
      auto archive = repo.Load(name);
      if (!archive.ok()) std::abort();
      summaries.push_back(SummarizeTree(name, *archive));
    }
    ComparativeReport report = BuildComparativeReport(summaries);
    benchmark::DoNotOptimize(report.workloads.size());
  }
  state.counters["archives"] = kArchives;
}
BENCHMARK(BM_MaterializeScan)->Unit(benchmark::kMillisecond);

// ------------------------------------------------------- view scan -------

// The zero-copy path at pool sizes 1/2/8: ScanSweepSummaries walks the
// mapped columns (root + phases + the depth-2 flatten slice) and never
// materializes a tree. pool:1 vs BM_MaterializeScan is the like-for-like
// speedup; pool:2/8 shows the ParallelFor scaling across archives.
void BM_ViewScan(benchmark::State& state) {
  const Fixture& f = Bench();
  ThreadPool::Global().Resize(static_cast<int>(state.range(0)));
  ArchiveRepository repo(f.dir);
  for (auto _ : state) {
    auto summaries = ScanSweepSummaries(repo, kDepth);
    if (!summaries.ok()) std::abort();
    ComparativeReport report = BuildComparativeReport(*summaries);
    benchmark::DoNotOptimize(report.workloads.size());
  }
  state.counters["archives"] = kArchives;
  state.counters["pool"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ViewScan)
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->ArgName("pool")
    ->Unit(benchmark::kMillisecond);

// Full-depth flatten over the view (every row visited, paths built) — the
// upper bound on per-scan work; still no tree materialization.
void BM_ViewScanFullFlatten(benchmark::State& state) {
  const Fixture& f = Bench();
  ThreadPool::Global().Resize(1);
  ArchiveRepository repo(f.dir);
  for (auto _ : state) {
    auto summaries = ScanSweepSummaries(repo, 0);
    if (!summaries.ok()) std::abort();
    benchmark::DoNotOptimize(summaries->size());
  }
  state.counters["archives"] = kArchives;
}
BENCHMARK(BM_ViewScanFullFlatten)->Unit(benchmark::kMillisecond);

// The regression gate perfbench's sweep and replay passes end with:
// CompareSweepSummaries over two depth-0 scans, so both sides hold every
// operation's path. The scans run once, outside the timed loop.
void BM_SweepGate(benchmark::State& state) {
  const Fixture& f = Bench();
  ThreadPool::Global().Resize(1);
  ArchiveRepository repo(f.dir);
  auto baseline = ScanSweepSummaries(repo, 0);
  auto candidate = ScanSweepSummaries(repo, 0);
  if (!baseline.ok() || !candidate.ok()) std::abort();
  for (auto _ : state) {
    SweepRegressionSummary gate =
        CompareSweepSummaries(*baseline, *candidate, RegressionOptions{});
    benchmark::DoNotOptimize(gate.jobs.size());
  }
  state.counters["archives"] = kArchives;
}
BENCHMARK(BM_SweepGate)->Unit(benchmark::kMillisecond);

// The serve routes' unit of work: one archive's chokepoint findings off
// the view (GetFindings) vs off a full decode.
void BM_FindingsMaterialize(benchmark::State& state) {
  const Fixture& f = Bench();
  ArchiveRepository repo(f.dir);
  for (auto _ : state) {
    auto archive = repo.Load(f.names[0]);
    if (!archive.ok()) std::abort();
    auto findings = AnalyzeChokepoints(*archive, {});
    benchmark::DoNotOptimize(findings.size());
  }
}
BENCHMARK(BM_FindingsMaterialize);

void BM_FindingsView(benchmark::State& state) {
  const Fixture& f = Bench();
  ArchiveRepository repo(f.dir);
  for (auto _ : state) {
    size_t count = 0;
    Status status = repo.ScanArchive(f.names[0], [&](const ArchiveView& view) {
      count = AnalyzeChokepoints(view, {}).size();
      return Status::OK();
    });
    if (!status.ok()) std::abort();
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_FindingsView);

}  // namespace
}  // namespace granula::core

BENCHMARK_MAIN();
