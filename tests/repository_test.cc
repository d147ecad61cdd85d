#include "granula/archive/repository.h"

#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "granula/archive/archiver.h"
#include "granula/model/performance_model.h"
#include "granula/monitor/job_logger.h"
#include "granula/visual/model_view.h"

namespace granula::core {
namespace {

PerformanceArchive MakeArchive(const std::string& platform,
                               double seconds) {
  SimTime now;
  JobLogger logger([&now] { return now; });
  OpId root = logger.StartOperation(kNoOp, "Job", "job", "Root", "Root");
  now = SimTime::Seconds(seconds);
  logger.EndOperation(root);
  PerformanceModel model("m");
  (void)model.AddRoot("Job", "Root");
  auto archive = Archiver().Build(
      model, logger.records(), {},
      {{"platform", platform}, {"algorithm", "BFS"}});
  EXPECT_TRUE(archive.ok());
  return std::move(archive).value();
}

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/repo_" + name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

TEST(RepositoryTest, SaveGeneratesSequentialNames) {
  ArchiveRepository repo(FreshDir("seq"));
  auto first = repo.Save(MakeArchive("Giraph", 10));
  auto second = repo.Save(MakeArchive("Giraph", 11));
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, "Giraph-BFS-001");
  EXPECT_EQ(*second, "Giraph-BFS-002");
}

TEST(RepositoryTest, ExplicitNameAndRoundtrip) {
  ArchiveRepository repo(FreshDir("explicit"));
  PerformanceArchive original = MakeArchive("PowerGraph", 42);
  auto name = repo.Save(original, "baseline");
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(*name, "baseline");
  auto loaded = repo.Load("baseline");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->ToJsonString(), original.ToJsonString());
}

TEST(RepositoryTest, ListReportsMetadata) {
  ArchiveRepository repo(FreshDir("list"));
  ASSERT_TRUE(repo.Save(MakeArchive("Giraph", 10)).ok());
  ASSERT_TRUE(repo.Save(MakeArchive("PowerGraph", 20)).ok());
  auto entries = repo.List();
  ASSERT_TRUE(entries.ok()) << entries.status();
  ASSERT_EQ(entries->size(), 2u);
  EXPECT_EQ((*entries)[0].name, "Giraph-BFS-001");
  EXPECT_EQ((*entries)[0].platform, "Giraph");
  EXPECT_EQ((*entries)[0].algorithm, "BFS");
  EXPECT_DOUBLE_EQ((*entries)[0].total_seconds, 10.0);
  EXPECT_EQ((*entries)[0].operations, 1u);
  EXPECT_EQ((*entries)[1].platform, "PowerGraph");
}

TEST(RepositoryTest, ListSkipsForeignFiles) {
  std::string dir = FreshDir("foreign");
  ArchiveRepository repo(dir);
  ASSERT_TRUE(repo.Init().ok());
  { std::ofstream(dir + "/garbage.json") << "not json at all"; }
  { std::ofstream(dir + "/readme.txt") << "hello"; }
  ASSERT_TRUE(repo.Save(MakeArchive("Giraph", 5)).ok());
  auto entries = repo.List();
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 1u);
}

TEST(RepositoryTest, LoadMissingIsNotFound) {
  ArchiveRepository repo(FreshDir("missing"));
  ASSERT_TRUE(repo.Init().ok());
  EXPECT_EQ(repo.Load("nope").status().code(), StatusCode::kNotFound);
}

TEST(RepositoryTest, ListWithoutDirectoryIsNotFound) {
  ArchiveRepository repo(FreshDir("nodir"));
  EXPECT_EQ(repo.List().status().code(), StatusCode::kNotFound);
}

TEST(RepositoryTest, Remove) {
  ArchiveRepository repo(FreshDir("remove"));
  ASSERT_TRUE(repo.Save(MakeArchive("Giraph", 3), "x").ok());
  EXPECT_TRUE(repo.Remove("x").ok());
  EXPECT_EQ(repo.Load("x").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(repo.Remove("x").code(), StatusCode::kNotFound);
}

// ---- error paths: foreign / damaged files in a shared directory ----

TEST(RepositoryErrorTest, LoadMissingFileIsNotFound) {
  ArchiveRepository repo(FreshDir("load_missing"));
  ASSERT_TRUE(repo.Init().ok());
  auto loaded = repo.Load("never-saved");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
  EXPECT_NE(loaded.status().message().find("never-saved"),
            std::string::npos);
}

TEST(RepositoryErrorTest, LoadTruncatedBodyIsCorruption) {
  ArchiveRepository repo(FreshDir("load_trunc"));
  ASSERT_TRUE(repo.Init().ok());
  auto name = repo.Save(MakeArchive("pgxd", 1.0));
  ASSERT_TRUE(name.ok());
  // Chop the file in half, as a crashed copy or a partial download would.
  std::string path = repo.directory() + "/" + name.value() + ".gba";
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  in.close();
  std::string bytes = buffer.str();
  std::ofstream(path, std::ios::trunc | std::ios::binary)
      << bytes.substr(0, bytes.size() / 2);
  auto loaded = repo.Load(name.value());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(RepositoryErrorTest, LoadForeignBodyIsCorruption) {
  ArchiveRepository repo(FreshDir("load_foreign"));
  ASSERT_TRUE(repo.Init().ok());
  std::ofstream(repo.directory() + "/foreign.gba")
      << "{\"root\": 42, \"model\": []}";
  auto loaded = repo.Load("foreign");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  // A JSON file is not a repository body at all.
  std::ofstream(repo.directory() + "/other.json") << "{}";
  EXPECT_EQ(repo.Load("other").status().code(), StatusCode::kNotFound);
}

TEST(RepositoryErrorTest, ListSkipsDamagedFilesButKeepsGoodOnes) {
  ArchiveRepository repo(FreshDir("list_mixed"));
  ASSERT_TRUE(repo.Init().ok());
  auto good = repo.Save(MakeArchive("giraph", 2.0));
  ASSERT_TRUE(good.ok());
  std::ofstream(repo.directory() + "/broken.json") << "{\"root\": [nope";
  std::ofstream(repo.directory() + "/notes.txt") << "not an archive at all";
  auto entries = repo.List();
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries.value().size(), 1u);
  EXPECT_EQ(entries.value()[0].name, good.value());
  EXPECT_EQ(entries.value()[0].platform, "giraph");
}

// ---- model renderer (shares this test binary for convenience) ----

TEST(ModelViewTest, RendersLevelsAndRules) {
  PerformanceModel model("demo");
  (void)model.AddRoot("Job", "Root");
  (void)model.AddOperation("Job", "Phase", "Job", "Root");
  (void)model.AddRule("Job", "Phase",
                      MakeChildAggregateRule("Total", Aggregate::kSum,
                                             "Duration", "Step"));
  std::string tree = RenderModelTree(model);
  EXPECT_NE(tree.find("performance model 'demo'"), std::string::npos);
  EXPECT_NE(tree.find("Job@Root"), std::string::npos);
  EXPECT_NE(tree.find("[level 1]"), std::string::npos);
  EXPECT_NE(tree.find("Job@Phase"), std::string::npos);
  EXPECT_NE(tree.find("[level 2]"), std::string::npos);
  EXPECT_NE(tree.find("Total :="), std::string::npos);
  // The implicit Duration rule is not spelled out.
  EXPECT_EQ(tree.find("Duration :="), std::string::npos);
}

TEST(ModelViewTest, EmptyModel) {
  PerformanceModel model("empty");
  EXPECT_NE(RenderModelTree(model).find("(no root)"), std::string::npos);
}

}  // namespace
}  // namespace granula::core
