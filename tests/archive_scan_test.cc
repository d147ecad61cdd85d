// The repository scan pipeline's promises: (1) ScanAll/ScanSelect hand a
// zero-copy ArchiveView of every matching archive to the callback; (2)
// output assembled in index order is byte-identical at any
// GRANULA_HOST_THREADS — including the comparative report and the
// regression gate, which must match a reference built from fully Loaded
// trees (CompareArchives for the gate) byte for byte; (3) errors surface as the lowest-index failure, exactly as a
// sequential loop would have reported first.

#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "granula/analysis/comparative.h"
#include "granula/archive/archiver.h"
#include "granula/archive/repository.h"
#include "granula/archive/view.h"
#include "granula/model/performance_model.h"
#include "granula/monitor/job_logger.h"
#include "granula/visual/comparative_view.h"

namespace granula::core {
namespace {

class PoolSizeGuard {
 public:
  PoolSizeGuard() : original_(ThreadPool::Global().num_threads()) {}
  ~PoolSizeGuard() { ThreadPool::Global().Resize(original_); }

 private:
  int original_;
};

// Restores the process-wide I/O fault hook even when an assertion bails.
class HookGuard {
 public:
  ~HookGuard() { ArchiveRepository::SetIoFaultHookForTest({}); }
};

PerformanceArchive MakeArchive(const std::string& platform,
                               const std::string& algorithm,
                               const std::string& graph, uint64_t vertices,
                               double seconds, int supersteps = 4) {
  SimTime now;
  JobLogger logger([&now] { return now; });
  OpId root = logger.StartOperation(kNoOp, "Job", "job", "Root", "Root");
  OpId load = logger.StartOperation(root, "Job", "job", "LoadGraph", "");
  now += SimTime::Seconds(seconds * 0.25);
  logger.EndOperation(load);
  OpId process = logger.StartOperation(root, "Job", "job", "ProcessGraph", "");
  for (int s = 0; s < supersteps; ++s) {
    OpId step = logger.StartOperation(process, "Master", "master", "Superstep",
                                      "Superstep-" + std::to_string(s));
    now += SimTime::Seconds(seconds * 0.75 / supersteps);
    logger.EndOperation(step);
  }
  logger.EndOperation(process);
  logger.EndOperation(root);
  PerformanceModel model("m");
  (void)model.AddRoot("Job", "Root");
  (void)model.AddOperation("Job", "LoadGraph", "Job", "Root");
  (void)model.AddOperation("Job", "ProcessGraph", "Job", "Root");
  (void)model.AddOperation("Master", "Superstep", "Job", "ProcessGraph");
  auto archive = Archiver().Build(
      model, logger.records(), {},
      {{"platform", platform},
       {"algorithm", algorithm},
       {"graph", graph},
       {"graph_vertices", std::to_string(vertices)},
       {"nodes", "4"}});
  EXPECT_TRUE(archive.ok()) << archive.status();
  return std::move(archive).value();
}

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/archive_scan_" + name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

void SaveAs(ArchiveRepository& repo, const PerformanceArchive& archive,
            const std::string& name) {
  auto saved = repo.Save(archive, name);
  ASSERT_TRUE(saved.ok()) << saved.status();
}

// A sweep repository of three archives across two platforms and two graph
// scales.
void FillSweepRepo(ArchiveRepository& repo, double base_seconds) {
  ASSERT_TRUE(repo.Init().ok());
  SaveAs(repo, MakeArchive("Alpha", "bfs", "g1", 1000, base_seconds), "a-bfs");
  SaveAs(repo, MakeArchive("Beta", "bfs", "g1", 1000, base_seconds * 1.5),
         "b-bfs");
  SaveAs(repo, MakeArchive("Alpha", "bfs", "g2", 4000, base_seconds * 3.0),
         "c-bfs-large");
}

// ---------------------------------------------------- scan basics --------

TEST(ArchiveScanTest, ScanAllVisitsEveryArchiveInIndexOrderAndCounts) {
  std::string dir = FreshDir("visit");
  ArchiveRepository repo(dir);
  FillSweepRepo(repo, 1.0);

  const ArchiveRepository::ViewScanStats before = ArchiveRepository::ScanStats();

  std::mutex mu;
  std::map<size_t, std::pair<std::string, uint32_t>> seen;  // idx -> name,ops
  Status status = repo.ScanAll(
      [&](size_t index, const ArchiveRepository::Entry& entry,
          const ArchiveView& view) {
        std::lock_guard<std::mutex> lock(mu);
        seen[index] = {entry.name, view.operation_count()};
        return Status::OK();
      });
  ASSERT_TRUE(status.ok()) << status;

  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].first, "a-bfs");
  EXPECT_EQ(seen[1].first, "b-bfs");
  EXPECT_EQ(seen[2].first, "c-bfs-large");
  // Root + LoadGraph + ProcessGraph + 4 supersteps.
  for (const auto& [index, entry] : seen) {
    EXPECT_EQ(entry.second, 7u) << entry.first;
  }

  const ArchiveRepository::ViewScanStats after = ArchiveRepository::ScanStats();
  EXPECT_EQ(after.archives_scanned - before.archives_scanned, 3u);
  EXPECT_GT(after.bytes_mapped, before.bytes_mapped);
}

TEST(ArchiveScanTest, ScanSelectFiltersByQuery) {
  std::string dir = FreshDir("select");
  ArchiveRepository repo(dir);
  FillSweepRepo(repo, 1.0);

  ArchiveRepository::Query query;
  query.platform = "Alpha";
  std::mutex mu;
  std::vector<std::string> names;
  Status status = repo.ScanSelect(
      query, [&](size_t, const ArchiveRepository::Entry& entry,
                 const ArchiveView& view) {
        std::lock_guard<std::mutex> lock(mu);
        names.push_back(entry.name);
        EXPECT_EQ(view.Metadata("platform"), "Alpha");
        return Status::OK();
      });
  ASSERT_TRUE(status.ok()) << status;
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"a-bfs", "c-bfs-large"}));
}

TEST(ArchiveScanTest, ScanArchiveByNameAndNotFound) {
  std::string dir = FreshDir("byname");
  ArchiveRepository repo(dir);
  FillSweepRepo(repo, 1.0);

  bool called = false;
  Status status = repo.ScanArchive("b-bfs", [&](const ArchiveView& view) {
    called = true;
    EXPECT_EQ(view.Metadata("platform"), "Beta");
    EXPECT_TRUE(view.has_root());
    return Status::OK();
  });
  EXPECT_TRUE(status.ok()) << status;
  EXPECT_TRUE(called);

  Status missing =
      repo.ScanArchive("no-such", [&](const ArchiveView&) {
        ADD_FAILURE() << "callback ran for a missing archive";
        return Status::OK();
      });
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);
}

// ------------------------------------------ determinism across pools -----

// The reference the scan path must match: every archive Loaded in full and
// reduced to the report's inputs from its materialised tree.
std::vector<SweepSummary> SummariesFromLoadedTrees(
    const ArchiveRepository& repo) {
  std::vector<SweepSummary> out;
  auto listed = repo.List();
  EXPECT_TRUE(listed.ok()) << listed.status();
  for (const ArchiveRepository::Entry& entry : *listed) {
    auto archive = repo.Load(entry.name);
    EXPECT_TRUE(archive.ok()) << archive.status();
    auto meta = [&](const std::string& key) {
      auto it = archive->job_metadata.find(key);
      return it == archive->job_metadata.end() ? std::string() : it->second;
    };
    SweepSummary summary;
    summary.name = entry.name;
    summary.platform = meta("platform");
    summary.algorithm = meta("algorithm");
    summary.graph = meta("graph");
    summary.fault = meta("fault");
    summary.nodes = static_cast<uint32_t>(std::stoul(meta("nodes")));
    summary.graph_vertices = std::stoull(meta("graph_vertices"));
    summary.complete = archive->status == ArchiveStatus::kComplete;
    summary.has_root = archive->root != nullptr;
    if (summary.has_root) {
      summary.total_seconds = archive->root->Duration().seconds();
      for (const auto& child : archive->root->children) {
        summary.phases.emplace_back(child->mission_id.empty()
                                        ? child->mission_type
                                        : child->mission_id,
                                    child->Duration().seconds());
      }
    }
    out.push_back(std::move(summary));
  }
  return out;
}

TEST(ArchiveScanTest, SummariesAndReportByteIdenticalAcrossThreadCounts) {
  std::string dir = FreshDir("threads");
  ArchiveRepository repo(dir);
  FillSweepRepo(repo, 1.0);

  const std::vector<SweepSummary> loaded = SummariesFromLoadedTrees(repo);
  const std::string reference =
      RenderComparativeReport(BuildComparativeReport(loaded));
  ASSERT_FALSE(reference.empty());

  PoolSizeGuard guard;
  for (int threads : {1, 2, 8}) {
    ThreadPool::Global().Resize(threads);
    auto summaries = ScanSweepSummaries(repo, 0);
    ASSERT_TRUE(summaries.ok()) << summaries.status();
    ASSERT_EQ(summaries->size(), loaded.size());
    for (size_t i = 0; i < summaries->size(); ++i) {
      EXPECT_EQ((*summaries)[i].name, loaded[i].name);
    }
    EXPECT_EQ(RenderComparativeReport(BuildComparativeReport(*summaries)),
              reference)
        << "threads=" << threads;
  }
}

// ----------------------------------------------- gate equivalence --------

// The gate's reference: jobs matched by name, each pair of Loaded
// archives (cut to `levels`) diffed with CompareArchives.
SweepRegressionSummary GateFromLoadedArchives(
    const ArchiveRepository& baseline, const ArchiveRepository& candidate,
    int levels, const RegressionOptions& options) {
  SweepRegressionSummary summary;
  auto base_listed = baseline.List();
  auto cand_listed = candidate.List();
  EXPECT_TRUE(base_listed.ok() && cand_listed.ok());
  std::set<std::string> cand_names, base_names;
  for (const auto& entry : *cand_listed) cand_names.insert(entry.name);
  for (const auto& entry : *base_listed) {
    base_names.insert(entry.name);
    if (cand_names.count(entry.name) == 0) {
      summary.missing.push_back(entry.name);
      continue;
    }
    auto base = baseline.Load(entry.name, levels);
    auto cand = candidate.Load(entry.name, levels);
    EXPECT_TRUE(base.ok() && cand.ok());
    summary.jobs.push_back(
        {entry.name, CompareArchives(*base, *cand, options)});
  }
  for (const auto& entry : *cand_listed) {
    if (base_names.count(entry.name) == 0) summary.added.push_back(entry.name);
  }
  return summary;
}

TEST(ArchiveScanTest, RegressionGateMatchesMaterializePathByteForByte) {
  std::string base_dir = FreshDir("gate_base");
  ArchiveRepository baseline(base_dir);
  ASSERT_TRUE(baseline.Init().ok());
  SaveAs(baseline, MakeArchive("Alpha", "bfs", "g1", 1000, 1.0), "a-bfs");
  SaveAs(baseline, MakeArchive("Beta", "bfs", "g1", 1000, 1.5), "b-bfs");
  SaveAs(baseline, MakeArchive("Alpha", "pr", "g1", 1000, 2.0), "gone");

  std::string cand_dir = FreshDir("gate_cand");
  ArchiveRepository candidate(cand_dir);
  ASSERT_TRUE(candidate.Init().ok());
  // a-bfs regressed 2x, b-bfs unchanged, "gone" missing, "fresh" added.
  SaveAs(candidate, MakeArchive("Alpha", "bfs", "g1", 1000, 2.0), "a-bfs");
  SaveAs(candidate, MakeArchive("Beta", "bfs", "g1", 1000, 1.5), "b-bfs");
  SaveAs(candidate, MakeArchive("Beta", "wcc", "g1", 1000, 1.0), "fresh");

  for (int depth : {0, 2, 3}) {
    RegressionOptions options;
    options.max_depth = depth;

    const int levels = depth > 0 ? std::max(depth, 2) : 0;
    SweepRegressionSummary reference =
        GateFromLoadedArchives(baseline, candidate, levels, options);

    auto base_summaries = ScanSweepSummaries(baseline, depth);
    auto cand_summaries = ScanSweepSummaries(candidate, depth);
    ASSERT_TRUE(base_summaries.ok() && cand_summaries.ok());
    SweepRegressionSummary scanned =
        CompareSweepSummaries(*base_summaries, *cand_summaries, options);

    EXPECT_EQ(RenderSweepRegressionSummary(scanned),
              RenderSweepRegressionSummary(reference))
        << "depth=" << depth;
    EXPECT_EQ(scanned.HasRegressions(), reference.HasRegressions());
    EXPECT_EQ(scanned.TotalRegressions(), reference.TotalRegressions());
    EXPECT_EQ(scanned.missing, reference.missing);
    EXPECT_EQ(scanned.added, reference.added);
    EXPECT_TRUE(scanned.HasRegressions()) << "a-bfs doubled its runtime";
    EXPECT_EQ(scanned.missing, std::vector<std::string>{"gone"});
    EXPECT_EQ(scanned.added, std::vector<std::string>{"fresh"});
  }
}

// ------------------------------------------------ error propagation ------

TEST(ArchiveScanTest, CallbackErrorForLowestIndexWins) {
  std::string dir = FreshDir("cberr");
  ArchiveRepository repo(dir);
  FillSweepRepo(repo, 1.0);

  PoolSizeGuard guard;
  for (int threads : {1, 8}) {
    ThreadPool::Global().Resize(threads);
    Status status = repo.ScanAll(
        [&](size_t index, const ArchiveRepository::Entry&,
            const ArchiveView&) {
          if (index == 0) return Status::InvalidArgument("first failed");
          if (index == 2) return Status::InvalidArgument("third failed");
          return Status::OK();
        });
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.message(), "first failed") << "threads=" << threads;
  }
}

TEST(ArchiveScanTest, ReadFaultSurfacesAsScanError) {
  std::string dir = FreshDir("iofault");
  ArchiveRepository repo(dir);
  FillSweepRepo(repo, 1.0);

  HookGuard hooks;
  ArchiveRepository::SetIoFaultHookForTest(
      [](const char* stage, const std::string& path) {
        if (std::string(stage) == "read" &&
            path.find("b-bfs") != std::string::npos) {
          return Status::IoError("injected read fault");
        }
        return Status::OK();
      });
  Status status = repo.ScanAll(
      [&](size_t, const ArchiveRepository::Entry&, const ArchiveView&) {
        return Status::OK();
      });
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("injected read fault"), std::string::npos);
}

}  // namespace
}  // namespace granula::core
