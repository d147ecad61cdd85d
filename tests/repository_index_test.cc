// The indexed repository's three promises: (1) List()/Select() answer
// from index.json without opening a single archive body — pinned here via
// the process-wide BodyReadCount; (2) every save is fsync + rename, so an
// injected I/O fault at any stage leaves no truncated archive visible;
// (3) the LRU subtree cache serves repeat fetches without re-decoding and
// invalidates on overwrite; (4) a directory of JSON bodies written by an
// older granula is refused until `granula pack` imports it.

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "granula/archive/archiver.h"
#include "granula/archive/gba.h"
#include "granula/archive/repository.h"
#include "granula/model/performance_model.h"
#include "granula/monitor/job_logger.h"
#include "legacy_repository.h"

namespace granula::core {
namespace {

// Restores the process-wide hooks even when an assertion bails out.
class HookGuard {
 public:
  ~HookGuard() {
    ArchiveRepository::SetIoFaultHookForTest({});
    ArchiveRepository::SetWallClockForTest(nullptr);
  }
};

PerformanceArchive MakeArchive(const std::string& platform,
                               const std::string& algorithm, double seconds,
                               int supersteps = 3) {
  SimTime now;
  JobLogger logger([&now] { return now; });
  OpId root = logger.StartOperation(kNoOp, "Job", "job", "Root", "Root");
  for (int s = 0; s < supersteps; ++s) {
    OpId step = logger.StartOperation(root, "Master", "master", "Superstep",
                                      "Superstep-" + std::to_string(s));
    now += SimTime::Seconds(seconds / supersteps);
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
  std::string dir = testing::TempDir() + "/repo_index_" + name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

int64_t g_fake_now = 0;
int64_t FakeNow() { return g_fake_now; }

// ------------------------------------------------ index-only serving -----

TEST(RepositoryIndexTest, ListNeverOpensBodiesAfterSave) {
  ArchiveRepository repo(FreshDir("noopen"));
  ASSERT_TRUE(repo.Save(MakeArchive("Giraph", "BFS", 10)).ok());
  ASSERT_TRUE(repo.Save(MakeArchive("Pgxd", "WCC", 20)).ok());

  const uint64_t before = ArchiveRepository::BodyReadCount();
  auto entries = repo.List();
  ASSERT_TRUE(entries.ok()) << entries.status();
  EXPECT_EQ(entries->size(), 2u);
  EXPECT_EQ(ArchiveRepository::BodyReadCount(), before)
      << "List() opened an archive body despite a consistent index";
}

TEST(RepositoryIndexTest, FreshProcessServesFromPersistedIndex) {
  std::string dir = FreshDir("persist");
  {
    ArchiveRepository writer(dir);
    ASSERT_TRUE(writer.Save(MakeArchive("Giraph", "BFS", 10)).ok());
    ASSERT_TRUE(writer.Save(MakeArchive("Hadoop", "PageRank", 99)).ok());
  }
  // A brand-new repository object (a different analyst's process) still
  // answers from index.json alone.
  ArchiveRepository reader(dir);
  const uint64_t before = ArchiveRepository::BodyReadCount();
  auto entries = reader.List();
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 2u);
  EXPECT_EQ((*entries)[1].platform, "Hadoop");
  EXPECT_DOUBLE_EQ((*entries)[1].total_seconds, 99.0);
  EXPECT_EQ(ArchiveRepository::BodyReadCount(), before);
}

TEST(RepositoryIndexTest, StaleIndexTriggersRebuildThenServesCheaply) {
  std::string dir = FreshDir("rebuild");
  ArchiveRepository repo(dir);
  ASSERT_TRUE(repo.Save(MakeArchive("Giraph", "BFS", 10)).ok());
  // Simulate a foreign writer: an archive landed without an index update.
  PerformanceArchive foreign = MakeArchive("Pgxd", "WCC", 5);
  std::ofstream(dir + "/dropped-in.gba", std::ios::binary)
      << EncodeGba(foreign);

  const uint64_t before = ArchiveRepository::BodyReadCount();
  auto entries = repo.List();
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 2u);
  EXPECT_GT(ArchiveRepository::BodyReadCount(), before)
      << "a stale index must be rebuilt from the bodies";

  // The rebuild persisted: the next List() is index-served again.
  const uint64_t after_rebuild = ArchiveRepository::BodyReadCount();
  ASSERT_TRUE(repo.List().ok());
  EXPECT_EQ(ArchiveRepository::BodyReadCount(), after_rebuild);
}

TEST(RepositoryIndexTest, RemoveUpdatesIndex) {
  ArchiveRepository repo(FreshDir("remove"));
  ASSERT_TRUE(repo.Save(MakeArchive("Giraph", "BFS", 1), "a").ok());
  ASSERT_TRUE(repo.Save(MakeArchive("Giraph", "BFS", 2), "b").ok());
  ASSERT_TRUE(repo.Remove("a").ok());
  const uint64_t before = ArchiveRepository::BodyReadCount();
  auto entries = repo.List();
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ((*entries)[0].name, "b");
  EXPECT_EQ(ArchiveRepository::BodyReadCount(), before)
      << "Remove() left the index stale";
}

TEST(RepositoryIndexTest, IndexNameIsReserved) {
  ArchiveRepository repo(FreshDir("reserved"));
  auto saved = repo.Save(MakeArchive("Giraph", "BFS", 1), "index");
  ASSERT_FALSE(saved.ok());
  EXPECT_EQ(saved.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------- queries ---------

TEST(RepositoryQueryTest, FiltersWithoutBodyReads) {
  HookGuard guard;
  ArchiveRepository::SetWallClockForTest(&FakeNow);
  ArchiveRepository repo(FreshDir("query"));
  g_fake_now = 1000;
  ASSERT_TRUE(repo.Save(MakeArchive("Giraph", "BFS", 10)).ok());
  g_fake_now = 2000;
  ASSERT_TRUE(repo.Save(MakeArchive("Giraph", "PageRank", 20)).ok());
  g_fake_now = 3000;
  ASSERT_TRUE(repo.Save(MakeArchive("Pgxd", "BFS", 30)).ok());

  const uint64_t before = ArchiveRepository::BodyReadCount();

  ArchiveRepository::Query by_platform;
  by_platform.platform = "Giraph";
  auto giraph = repo.Select(by_platform);
  ASSERT_TRUE(giraph.ok()) << giraph.status();
  EXPECT_EQ(giraph->size(), 2u);

  ArchiveRepository::Query by_algorithm;
  by_algorithm.algorithm = "BFS";
  auto bfs = repo.Select(by_algorithm);
  ASSERT_TRUE(bfs.ok());
  EXPECT_EQ(bfs->size(), 2u);

  ArchiveRepository::Query window;
  window.saved_since = 1500;
  window.saved_until = 2500;
  auto mid = repo.Select(window);
  ASSERT_TRUE(mid.ok());
  ASSERT_EQ(mid->size(), 1u);
  EXPECT_EQ((*mid)[0].algorithm, "PageRank");
  EXPECT_EQ((*mid)[0].saved_unix_seconds, 2000);

  ArchiveRepository::Query status;
  status.status = "complete";
  auto complete = repo.Select(status);
  ASSERT_TRUE(complete.ok());
  EXPECT_EQ(complete->size(), 3u);
  status.status = "incomplete";
  auto incomplete = repo.Select(status);
  ASSERT_TRUE(incomplete.ok());
  EXPECT_TRUE(incomplete->empty());

  ArchiveRepository::Query both;
  both.platform = "Giraph";
  both.algorithm = "BFS";
  both.saved_until = 1500;
  auto narrow = repo.Select(both);
  ASSERT_TRUE(narrow.ok());
  ASSERT_EQ(narrow->size(), 1u);
  EXPECT_DOUBLE_EQ((*narrow)[0].total_seconds, 10.0);

  EXPECT_EQ(ArchiveRepository::BodyReadCount(), before)
      << "Select() must answer from the index alone";
}

TEST(RepositoryQueryTest, TimeBoundsAreInclusiveAndOrdered) {
  HookGuard guard;
  ArchiveRepository::SetWallClockForTest(&FakeNow);
  ArchiveRepository repo(FreshDir("bounds"));
  g_fake_now = 1000;
  ASSERT_TRUE(repo.Save(MakeArchive("Giraph", "BFS", 10)).ok());
  g_fake_now = 2000;
  ASSERT_TRUE(repo.Save(MakeArchive("Giraph", "PageRank", 20)).ok());

  // Both bounds are inclusive: an entry saved exactly at since or exactly
  // at until matches.
  ArchiveRepository::Query exact;
  exact.saved_since = 1000;
  exact.saved_until = 1000;
  auto at_since = repo.Select(exact);
  ASSERT_TRUE(at_since.ok()) << at_since.status();
  ASSERT_EQ(at_since->size(), 1u);
  EXPECT_EQ((*at_since)[0].saved_unix_seconds, 1000);

  exact.saved_since = 2000;
  exact.saved_until = 2000;
  auto at_until = repo.Select(exact);
  ASSERT_TRUE(at_until.ok());
  ASSERT_EQ(at_until->size(), 1u);
  EXPECT_EQ((*at_until)[0].algorithm, "PageRank");

  ArchiveRepository::Query covering;
  covering.saved_since = 1000;
  covering.saved_until = 2000;
  auto both_ends = repo.Select(covering);
  ASSERT_TRUE(both_ends.ok());
  EXPECT_EQ(both_ends->size(), 2u);

  // since > until is a contract violation, not an empty result — the HTTP
  // layer turns this into a 400.
  ArchiveRepository::Query inverted;
  inverted.saved_since = 2000;
  inverted.saved_until = 1000;
  auto error = repo.Select(inverted);
  ASSERT_FALSE(error.ok());
  EXPECT_EQ(error.status().code(), StatusCode::kInvalidArgument);

  // 0 still means "unbounded", so a since-only query is not "inverted".
  ArchiveRepository::Query open_ended;
  open_ended.saved_since = 1500;
  auto tail = repo.Select(open_ended);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail->size(), 1u);
}

// ----------------------------------------------------- LRU cache ---------

TEST(RepositoryCacheTest, HitsMissesAndInvalidation) {
  ArchiveRepository repo(FreshDir("cache"));
  ASSERT_TRUE(repo.Save(MakeArchive("Giraph", "BFS", 9), "job").ok());

  auto first = repo.FetchSubtree("job", "Root/Superstep-1");
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(repo.cache_stats().misses, 1u);
  EXPECT_EQ(repo.cache_stats().hits, 0u);

  const uint64_t body_reads = ArchiveRepository::BodyReadCount();
  auto second = repo.FetchSubtree("job", "Root/Superstep-1");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(repo.cache_stats().hits, 1u);
  EXPECT_EQ(*second, *first) << "a hit must return the shared subtree";
  EXPECT_EQ(ArchiveRepository::BodyReadCount(), body_reads)
      << "a cache hit decoded from disk anyway";

  // Overwriting the archive must invalidate its cached subtrees.
  ASSERT_TRUE(repo.Save(MakeArchive("Giraph", "BFS", 11), "job").ok());
  auto third = repo.FetchSubtree("job", "Root/Superstep-1");
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(repo.cache_stats().misses, 2u)
      << "Save() left a stale subtree in the cache";
}

TEST(RepositoryCacheTest, EvictsLeastRecentlyUsed) {
  ArchiveRepository repo(FreshDir("evict"));
  ASSERT_TRUE(repo.Save(MakeArchive("Giraph", "BFS", 9), "job").ok());
  repo.set_cache_capacity(2);

  ASSERT_TRUE(repo.FetchSubtree("job", "Root/Superstep-0").ok());
  ASSERT_TRUE(repo.FetchSubtree("job", "Root/Superstep-1").ok());
  ASSERT_TRUE(repo.FetchSubtree("job", "Root/Superstep-0").ok());  // touch 0
  ASSERT_TRUE(repo.FetchSubtree("job", "Root/Superstep-2").ok());  // evict 1
  EXPECT_EQ(repo.cache_stats().evictions, 1u);

  ASSERT_TRUE(repo.FetchSubtree("job", "Root/Superstep-0").ok());
  EXPECT_EQ(repo.cache_stats().hits, 2u) << "the touched entry was evicted";
  ASSERT_TRUE(repo.FetchSubtree("job", "Root/Superstep-1").ok());
  EXPECT_EQ(repo.cache_stats().misses, 4u) << "expected 1 to have been evicted";
}

TEST(RepositoryCacheTest, SubtreeFetchMissingPathIsNotFound) {
  ArchiveRepository repo(FreshDir("cache_missing"));
  ASSERT_TRUE(repo.Save(MakeArchive("Giraph", "BFS", 9), "job").ok());
  auto missing = repo.FetchSubtree("job", "Root/NoSuchStep");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  auto no_archive = repo.FetchSubtree("ghost", "Root");
  ASSERT_FALSE(no_archive.ok());
  EXPECT_EQ(no_archive.status().code(), StatusCode::kNotFound);
}

// ------------------------------------------------ durability faults ------

class RepositoryFaultTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RepositoryFaultTest, FailedSaveLeavesNoTruncatedArchive) {
  HookGuard guard;
  const std::string failing_stage = GetParam();
  std::string dir = FreshDir(std::string("fault_") + failing_stage);
  ArchiveRepository repo(dir);
  ASSERT_TRUE(repo.Save(MakeArchive("Giraph", "BFS", 7), "good").ok());
  const std::string good_body = repo.Load("good")->ToJsonString();

  ArchiveRepository::SetIoFaultHookForTest(
      [&failing_stage](const char* stage, const std::string& path) {
        // Fault only archive bodies, not the (best-effort) index rewrite.
        if (stage == failing_stage &&
            path.find("index.json") == std::string::npos) {
          return Status::IoError(std::string("injected ") + stage + " fault");
        }
        return Status::OK();
      });

  // Overwrite of an existing archive and a brand-new save both fail...
  auto overwrite = repo.Save(MakeArchive("Giraph", "BFS", 8), "good");
  ASSERT_FALSE(overwrite.ok()) << failing_stage;
  EXPECT_EQ(overwrite.status().code(), StatusCode::kIoError);
  auto fresh = repo.Save(MakeArchive("Pgxd", "WCC", 9), "fresh");
  ASSERT_FALSE(fresh.ok()) << failing_stage;

  ArchiveRepository::SetIoFaultHookForTest({});

  // ...and neither failure is visible: the old body is intact, the new
  // name absent, and no *.tmp litter survived.
  EXPECT_EQ(repo.Load("good")->ToJsonString(), good_body) << failing_stage;
  EXPECT_EQ(repo.Load("fresh").status().code(), StatusCode::kNotFound);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp")
        << "leftover temp file: " << entry.path();
  }
  auto entries = repo.List();
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ((*entries)[0].name, "good");
}

INSTANTIATE_TEST_SUITE_P(AllStages, RepositoryFaultTest,
                         ::testing::Values("write", "fsync", "rename"));

// ------------------------------------------- legacy JSON directories ----

TEST(RepositoryLegacyTest, JsonBodiesAreRefusedUntilPacked) {
  std::string dir = FreshDir("legacy");
  PerformanceArchive a = MakeArchive("Giraph", "BFS", 10);
  PerformanceArchive b = MakeArchive("Pgxd", "WCC", 20);
  WriteLegacyRepository(dir, {{"a", &a, 500}, {"b", &b, 600}});
  ArchiveRepository repo(dir);

  // Every reader fails loudly instead of listing an empty repository, and
  // nothing on disk changes: serve roots and CI baselines are read-only.
  auto expect_refused = [](const Status& status, const char* what) {
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << what;
    EXPECT_NE(status.message().find("granula pack --repo="),
              std::string::npos)
        << what << ": " << status;
  };
  expect_refused(repo.List().status(), "List");
  expect_refused(repo.Select({}).status(), "Select");
  expect_refused(repo.ScanAll([](size_t, const ArchiveRepository::Entry&,
                                 const ArchiveView&) { return Status::OK(); }),
                 "ScanAll");
  expect_refused(repo.Load("a").status(), "Load");
  expect_refused(repo.FetchSubtree("a", "Root").status(), "FetchSubtree");
  expect_refused(
      repo.ScanArchive("a", [](const ArchiveView&) { return Status::OK(); }),
      "ScanArchive");
  expect_refused(repo.Save(MakeArchive("Giraph", "BFS", 1)).status(), "Save");
  expect_refused(repo.Remove("a"), "Remove");
  EXPECT_TRUE(std::filesystem::exists(dir + "/a.json"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/a.gba"));
}

TEST(RepositoryLegacyTest, PackImportsBodiesAndKeepsSavedTimes) {
  HookGuard guard;
  ArchiveRepository::SetWallClockForTest(&FakeNow);
  g_fake_now = 9999;  // packing must NOT look like a new save
  std::string dir = FreshDir("pack");
  PerformanceArchive a = MakeArchive("Giraph", "BFS", 10);
  PerformanceArchive b = MakeArchive("Pgxd", "WCC", 20);
  WriteLegacyRepository(dir, {{"a", &a, 500}, {"b", &b, 600}});
  // A foreign file the import must leave alone.
  std::ofstream(dir + "/notes.json") << "not json at all";

  ArchiveRepository repo(dir);
  auto packed = repo.Pack();
  ASSERT_TRUE(packed.ok()) << packed.status();
  EXPECT_EQ(packed->converted, 2u);
  EXPECT_EQ(packed->skipped, 0u);
  EXPECT_LT(packed->bytes_after, packed->bytes_before)
      << "the binary form should be smaller than the JSON it replaces";
  EXPECT_FALSE(std::filesystem::exists(dir + "/a.json"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/notes.json"));

  auto entries = repo.List();
  ASSERT_TRUE(entries.ok()) << entries.status();
  ASSERT_EQ(entries->size(), 2u);
  EXPECT_EQ((*entries)[0].format, ArchiveFormat::kGba);
  EXPECT_EQ((*entries)[0].saved_unix_seconds, 500);
  EXPECT_EQ((*entries)[1].saved_unix_seconds, 600);
  EXPECT_EQ(repo.Load("a")->ToJsonString(), a.ToJsonString());

  auto again = repo.Pack();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->converted, 0u);
  EXPECT_EQ(again->skipped, 2u);
}

TEST(RepositoryLegacyTest, PackFailsOnACorruptListedBody) {
  std::string dir = FreshDir("pack_corrupt");
  PerformanceArchive a = MakeArchive("Giraph", "BFS", 10);
  WriteLegacyRepository(dir, {{"a", &a, 500}});
  std::ofstream(dir + "/a.json", std::ios::trunc) << "{\"root\": 7}";
  ArchiveRepository repo(dir);
  auto packed = repo.Pack();
  ASSERT_FALSE(packed.ok());
  EXPECT_EQ(packed.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(repo.List().status().code(), StatusCode::kFailedPrecondition);
}

TEST(RepositoryIndexTest, OverwriteThatChangesTheEntryDropsItFirst) {
  HookGuard guard;
  std::string dir = FreshDir("overwrite");
  ArchiveRepository repo(dir);
  ASSERT_TRUE(repo.Save(MakeArchive("Giraph", "BFS", 5), "job").ok());
  // The new body lands and the index write after it fails: the crash
  // window between the two.
  int index_writes = 0;
  ArchiveRepository::SetIoFaultHookForTest(
      [&index_writes](const char* stage, const std::string& path) {
        if (std::string(stage) == "write" &&
            path.find("index.json") != std::string::npos &&
            ++index_writes == 2) {
          return Status::IoError("injected crash after the body rename");
        }
        return Status::OK();
      });
  ASSERT_TRUE(repo.Save(MakeArchive("Giraph", "BFS", 6), "job").ok());
  ArchiveRepository::SetIoFaultHookForTest({});
  EXPECT_EQ(index_writes, 2) << "the changed entry is dropped, then re-added";

  ArchiveRepository reopened(dir);
  auto entries = reopened.List();
  ASSERT_TRUE(entries.ok()) << entries.status();
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_DOUBLE_EQ((*entries)[0].total_seconds, 6.0)
      << "the index listed the overwritten body's old metadata";

  // An overwrite that leaves the entry unchanged writes the index once.
  index_writes = 0;
  ArchiveRepository::SetIoFaultHookForTest(
      [&index_writes](const char* stage, const std::string& path) {
        if (std::string(stage) == "write" &&
            path.find("index.json") != std::string::npos) {
          ++index_writes;
        }
        return Status::OK();
      });
  ASSERT_TRUE(reopened.Save(MakeArchive("Giraph", "BFS", 6), "job").ok());
  EXPECT_EQ(index_writes, 1);
}

// ------------------------------------------------- shallow loading -------

TEST(RepositoryShallowTest, LoadLevelsCutsGbaBodies) {
  ArchiveRepository repo(FreshDir("shallow"));
  ASSERT_TRUE(repo.Save(MakeArchive("Giraph", "BFS", 9, 5), "job").ok());

  auto top = repo.Load("job", 1);
  ASSERT_TRUE(top.ok()) << top.status();
  EXPECT_EQ(top->OperationCount(), 1u);

  auto two = repo.Load("job", 2);
  ASSERT_TRUE(two.ok());
  EXPECT_EQ(two->OperationCount(), 6u);  // root + 5 supersteps

  auto full = repo.Load("job", 0);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->ToJsonString(), repo.Load("job")->ToJsonString());
}

}  // namespace
}  // namespace granula::core
