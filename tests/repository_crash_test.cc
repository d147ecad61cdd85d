// Crash at every hook point. Each run replays one mixed sequence of
// Save/SaveAll/Pack/Remove and fails the I/O-stage hook at its k-th call
// and at every call after it, as a dead device would; the sequence stops
// at the first failed operation. The in-memory repository is then dropped
// and the directory reopened. What a reader sees must be whole:
//   - List() equals a rebuild from the bodies with index.json deleted
//     (save times aside: a rebuild can only take them from file mtimes);
//   - no *.tmp file, no GBA body missing from List(), and every listed
//     archive loads;
//   - a crash mid-Pack leaves the directory refused as legacy, and running
//     Pack() again finishes the conversion.
// k runs from 1 until a run completes without reaching it.

#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "granula/archive/archiver.h"
#include "granula/archive/repository.h"
#include "granula/model/performance_model.h"
#include "granula/monitor/job_logger.h"
#include "legacy_repository.h"

namespace granula::core {
namespace {

namespace fs = std::filesystem;

PerformanceArchive MakeArchive(const std::string& platform,
                               const std::string& algorithm, double seconds) {
  SimTime now;
  JobLogger logger([&now] { return now; });
  OpId root = logger.StartOperation(kNoOp, "Job", "job", "Root", "Root");
  for (int s = 0; s < 3; ++s) {
    OpId step = logger.StartOperation(root, "Master", "master", "Superstep",
                                      "Superstep-" + std::to_string(s));
    now += SimTime::Seconds(seconds / 3);
    logger.EndOperation(step);
  }
  now = SimTime::Seconds(seconds);
  logger.EndOperation(root);
  PerformanceModel model("m");
  (void)model.AddRoot("Job", "Root");
  (void)model.AddOperation("Master", "Superstep", "Job", "Root");
  auto archive = Archiver().Build(
      model, logger.records(), {},
      {{"platform", platform}, {"algorithm", algorithm}});
  EXPECT_TRUE(archive.ok());
  return std::move(archive).value();
}

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/repo_crash_" + name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  return dir;
}

// Fails the k-th hook call and every later one; counts all calls.
class CrashAt {
 public:
  explicit CrashAt(uint64_t k) : k_(k) {
    ArchiveRepository::SetIoFaultHookForTest(
        [this](const char* stage, const std::string&) {
          if (calls_.fetch_add(1) + 1 < k_) return Status::OK();
          return Status::IoError(std::string("crash before ") + stage);
        });
  }
  ~CrashAt() { ArchiveRepository::SetIoFaultHookForTest({}); }
  bool reached() const { return calls_.load() >= k_; }

 private:
  const uint64_t k_;
  std::atomic<uint64_t> calls_{0};
};

using Listing = std::tuple<std::string, std::string, std::string, std::string,
                           double, uint64_t, ArchiveFormat>;

std::vector<Listing> Listed(const std::vector<ArchiveRepository::Entry>& in) {
  std::vector<Listing> out;
  for (const auto& e : in) {
    out.emplace_back(e.name, e.platform, e.algorithm, e.status,
                     e.total_seconds, e.operations, e.format);
  }
  return out;
}

std::set<std::string> FilesWith(const std::string& dir,
                                const std::string& extension) {
  std::set<std::string> stems;
  for (const auto& file : fs::directory_iterator(dir)) {
    if (file.path().extension() == extension) {
      stems.insert(file.path().stem().string());
    }
  }
  return stems;
}

void CheckReopened(const std::string& dir, uint64_t k, bool legacy_start) {
  SCOPED_TRACE("crash at hook call " + std::to_string(k));
  ArchiveRepository repo(dir);
  auto listed = repo.List();
  if (!listed.ok()) {
    // Only an interrupted import may leave the directory legacy; running
    // the import again must finish it.
    ASSERT_TRUE(legacy_start) << listed.status();
    ASSERT_EQ(listed.status().code(), StatusCode::kFailedPrecondition)
        << listed.status();
    auto packed = repo.Pack();
    ASSERT_TRUE(packed.ok()) << packed.status();
    listed = repo.List();
    ASSERT_TRUE(listed.ok()) << listed.status();
  }
  if (legacy_start) {
    EXPECT_EQ(FilesWith(dir, ".json"),
              (std::set<std::string>{"index", "notes"}))
        << "legacy bodies survived the import";
  }
  EXPECT_TRUE(FilesWith(dir, ".tmp").empty());

  std::set<std::string> names;
  for (const auto& entry : *listed) {
    names.insert(entry.name);
    EXPECT_TRUE(repo.Load(entry.name).ok()) << entry.name;
  }
  EXPECT_EQ(FilesWith(dir, ".gba"), names) << "a body is not listed";

  const std::string copy = dir + "_rebuilt";
  std::error_code ec;
  fs::remove_all(copy, ec);
  fs::copy(dir, copy);
  fs::remove(copy + "/index.json");
  auto rebuilt = ArchiveRepository(copy).List();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  EXPECT_EQ(Listed(*listed), Listed(*rebuilt));
}

// Runs `sequence` against a fresh directory for k = 1, 2, ... until a run
// finishes before the k-th hook call; returns the number of crash runs.
uint64_t CrashEverywhere(
    const std::string& name, bool legacy_start,
    const std::function<void(const std::string& dir)>& prepare,
    const std::function<Status(ArchiveRepository&)>& sequence) {
  const std::string dir = FreshDir(name);
  for (uint64_t k = 1; k < 1000; ++k) {
    std::error_code ec;
    fs::remove_all(dir, ec);
    prepare(dir);
    bool reached = false;
    {
      CrashAt crash(k);
      ArchiveRepository repo(dir);
      Status status = sequence(repo);
      reached = crash.reached();
      if (!reached) {
        EXPECT_TRUE(status.ok()) << "k=" << k << ": " << status;
      }
    }
    CheckReopened(dir, k, legacy_start);
    if (!reached || testing::Test::HasFatalFailure()) return k - 1;
  }
  ADD_FAILURE() << "sequence never completed";
  return 0;
}

TEST(RepositoryCrashTest, SavesOverwritesAndRemoves) {
  const PerformanceArchive a = MakeArchive("Giraph", "BFS", 10);
  const PerformanceArchive b = MakeArchive("Pgxd", "WCC", 20);
  const PerformanceArchive c = MakeArchive("Giraph", "BFS", 30);
  const PerformanceArchive changed = MakeArchive("Hadoop", "BFS", 40);
  const uint64_t runs = CrashEverywhere(
      "saves", false, [](const std::string&) {},
      [&](ArchiveRepository& repo) -> Status {
        GRANULA_RETURN_IF_ERROR(repo.Save(a).status());
        GRANULA_RETURN_IF_ERROR(repo.Save(b, "named").status());
        GRANULA_RETURN_IF_ERROR(repo.SaveAll({&a, &b, &c}, 2).status());
        // An overwrite whose index entry changes.
        GRANULA_RETURN_IF_ERROR(repo.Save(changed, "named").status());
        GRANULA_RETURN_IF_ERROR(repo.Remove("Giraph-BFS-001"));
        return repo.Save(c).status();
      });
  EXPECT_GT(runs, 20u);
}

TEST(RepositoryCrashTest, PackOfALegacyDirectoryThenSaves) {
  const PerformanceArchive a = MakeArchive("Giraph", "BFS", 10);
  const PerformanceArchive b = MakeArchive("Pgxd", "WCC", 20);
  const PerformanceArchive c = MakeArchive("Hadoop", "PageRank", 30);
  const uint64_t runs = CrashEverywhere(
      "pack", true,
      [&](const std::string& dir) {
        WriteLegacyRepository(dir, {{"Giraph-BFS-001", &a, 500},
                                    {"Pgxd-WCC-001", &b, 600},
                                    {"Hadoop-PageRank-001", &c, 700}});
        std::ofstream(dir + "/notes.json") << "not json at all";
      },
      [&](ArchiveRepository& repo) -> Status {
        GRANULA_RETURN_IF_ERROR(repo.Pack().status());
        GRANULA_RETURN_IF_ERROR(repo.Save(a).status());
        GRANULA_RETURN_IF_ERROR(repo.Remove("Pgxd-WCC-001"));
        return repo.SaveAll({&b, &c}, 2).status();
      });
  EXPECT_GT(runs, 20u);
}

}  // namespace
}  // namespace granula::core
