#include "granula/archive/repository.h"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "granula/archive/archiver.h"
#include "granula/model/performance_model.h"
#include "granula/monitor/job_logger.h"

namespace granula::core {
namespace {

namespace fs = std::filesystem;

PerformanceArchive MakeArchive(const std::string& platform, double seconds) {
  SimTime now;
  JobLogger logger([&now] { return now; });
  OpId root = logger.StartOperation(kNoOp, "Job", "job", "Root", "Root");
  for (int i = 0; i < 32; ++i) {
    OpId step = logger.StartOperation(root, "Worker", "w", "Step");
    logger.AddInfo(step, "Items", Json(int64_t{i}));
    logger.EndOperation(step);
  }
  now = SimTime::Seconds(seconds);
  logger.EndOperation(root);
  PerformanceModel model("m");
  (void)model.AddRoot("Job", "Root");
  (void)model.AddOperation("Worker", "Step", "Job", "Root");
  auto archive = Archiver().Build(
      model, logger.records(), {},
      {{"platform", platform}, {"algorithm", "BFS"}});
  EXPECT_TRUE(archive.ok());
  return std::move(archive).value();
}

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/repo_conc_" + name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  return dir;
}

TEST(RepositoryConcurrencyTest, SaveAllMatchesSequentialNaming) {
  ArchiveRepository repo(FreshDir("batch"));
  std::vector<PerformanceArchive> archives;
  for (int i = 0; i < 12; ++i) {
    archives.push_back(MakeArchive(i % 2 == 0 ? "Giraph" : "PowerGraph",
                                   10 + i));
  }
  std::vector<const PerformanceArchive*> pointers;
  for (const auto& a : archives) pointers.push_back(&a);

  auto names = repo.SaveAll(pointers);
  ASSERT_TRUE(names.ok()) << names.status();
  ASSERT_EQ(names->size(), 12u);
  EXPECT_EQ((*names)[0], "Giraph-BFS-001");
  EXPECT_EQ((*names)[1], "PowerGraph-BFS-001");
  EXPECT_EQ((*names)[2], "Giraph-BFS-002");

  // Every name is unique and every file loads back intact.
  std::set<std::string> unique(names->begin(), names->end());
  EXPECT_EQ(unique.size(), 12u);
  for (size_t i = 0; i < names->size(); ++i) {
    auto loaded = repo.Load((*names)[i]);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_EQ(loaded->ToJsonString(), archives[i].ToJsonString());
  }
  auto entries = repo.List();
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 12u);
}

TEST(RepositoryConcurrencyTest, SaveAllAppendsAfterExistingRuns) {
  ArchiveRepository repo(FreshDir("append"));
  PerformanceArchive first = MakeArchive("Giraph", 1);
  ASSERT_TRUE(repo.Save(first).ok());  // Giraph-BFS-001
  std::vector<PerformanceArchive> archives;
  archives.push_back(MakeArchive("Giraph", 2));
  archives.push_back(MakeArchive("Giraph", 3));
  std::vector<const PerformanceArchive*> pointers{&archives[0],
                                                  &archives[1]};
  auto names = repo.SaveAll(pointers);
  ASSERT_TRUE(names.ok()) << names.status();
  EXPECT_EQ((*names)[0], "Giraph-BFS-002");
  EXPECT_EQ((*names)[1], "Giraph-BFS-003");
}

TEST(RepositoryConcurrencyTest, SaveAllRejectsNull) {
  ArchiveRepository repo(FreshDir("null"));
  std::vector<const PerformanceArchive*> pointers{nullptr};
  EXPECT_EQ(repo.SaveAll(pointers).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RepositoryConcurrencyTest, AutoNamesNeverReusedAfterRemove) {
  // Max-index naming: deleting an archive must not recycle its name, so
  // analysts can cite "Giraph-BFS-002" forever.
  ArchiveRepository repo(FreshDir("reuse"));
  PerformanceArchive a = MakeArchive("Giraph", 1);
  ASSERT_TRUE(repo.Save(a).ok());                    // 001
  auto second = repo.Save(a);                        // 002
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(repo.Remove(*second).ok());
  auto third = repo.Save(a);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(*third, "Giraph-BFS-003");  // not 002 again
}

TEST(RepositoryConcurrencyTest, InterruptedWriteInvisibleToList) {
  // A crash mid-save leaves only <name>.json.tmp behind; List() and Load()
  // must not see it, and a later save of the same name must succeed.
  std::string dir = FreshDir("interrupted");
  ArchiveRepository repo(dir);
  ASSERT_TRUE(repo.Init().ok());
  {
    std::ofstream tmp(dir + "/crashed.json.tmp");
    tmp << "{\"job\": {\"platform\": \"Giraph\"";  // truncated JSON
  }
  auto entries = repo.List();
  ASSERT_TRUE(entries.ok()) << entries.status();
  EXPECT_TRUE(entries->empty());
  EXPECT_EQ(repo.Load("crashed").status().code(), StatusCode::kNotFound);

  PerformanceArchive archive = MakeArchive("Giraph", 2);
  ASSERT_TRUE(repo.Save(archive, "crashed").ok());
  auto loaded = repo.Load("crashed");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->ToJsonString(), archive.ToJsonString());
}

TEST(RepositoryConcurrencyTest, SaveLeavesNoTempFilesBehind) {
  std::string dir = FreshDir("clean");
  ArchiveRepository repo(dir);
  PerformanceArchive archive = MakeArchive("Giraph", 2);
  ASSERT_TRUE(repo.Save(archive, "a").ok());
  std::vector<const PerformanceArchive*> pointers{&archive, &archive};
  ASSERT_TRUE(repo.SaveAll(pointers).ok());
  for (const auto& file : fs::directory_iterator(dir)) {
    EXPECT_NE(file.path().extension(), ".tmp") << file.path();
  }
}

TEST(RepositoryConcurrencyTest, FetchSubtreeHammer) {
  // The serve daemon's workers all call FetchSubtree on one shared
  // repository. 8 threads x 200 fetches over 6 keys against a capacity-2
  // cache: constant hit/miss/evict churn on every path. Run under TSan
  // (the thread-sanitize CI lane builds this test) to prove the cache is
  // data-race free; the assertions prove LRU bookkeeping stays coherent.
  ArchiveRepository repo(FreshDir("hammer"));
  std::vector<std::string> names;
  for (int i = 0; i < 3; ++i) {
    auto name = repo.Save(MakeArchive("Giraph", 10 + i));
    ASSERT_TRUE(name.ok()) << name.status();
    names.push_back(*name);
  }
  repo.set_cache_capacity(2);

  constexpr int kThreads = 8;
  constexpr int kFetches = 200;
  const std::string paths[] = {"Root", "Root/Step"};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kFetches; ++i) {
        const std::string& name = names[(t + i) % names.size()];
        const std::string& path = paths[(t + i) % 2];
        auto subtree = repo.FetchSubtree(name, path);
        if (!subtree.ok()) {
          ++failures;
          continue;
        }
        // The pointer stays valid after eviction (shared ownership), so
        // inspecting it here races with nothing.
        if (path == "Root") {
          if ((*subtree)->SubtreeSize() != 33) ++failures;
        } else {
          if ((*subtree)->mission_type != "Step" ||
              !(*subtree)->HasInfo("Items")) {
            ++failures;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  const ArchiveRepository::CacheStats stats = repo.cache_stats();
  // Every fetch counts exactly one hit or one miss, even when two threads
  // race to decode the same key.
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kFetches);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
  EXPECT_GT(stats.evictions, 0u);  // capacity 2 over 6 keys must evict
}

TEST(RepositoryConcurrencyTest, SaveIntoUnwritableDirectoryFails) {
  // Point the repository at a path that exists as a *file*: Init() must
  // propagate the error instead of leaving a partial archive around.
  std::string dir = FreshDir("notadir");
  { std::ofstream file(dir); file << "x"; }
  ArchiveRepository repo(dir);
  PerformanceArchive archive = MakeArchive("Giraph", 2);
  EXPECT_FALSE(repo.Save(archive, "a").ok());
}

}  // namespace
}  // namespace granula::core
