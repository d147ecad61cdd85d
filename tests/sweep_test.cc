// The sweep driver behind `granula bench`: declarative config parsing,
// matrix expansion with deterministic run names, and the end-to-end
// contract that one sweep lands in one repository with byte-identical
// archives regardless of GRANULA_HOST_THREADS.

#include "granula/bench/sweep.h"

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/thread_pool.h"
#include "granula/analysis/comparative.h"
#include "granula/archive/repository.h"

namespace granula::bench {
namespace {

Json ParseJson(const std::string& text) {
  Result<Json> json = Json::Parse(text);
  EXPECT_TRUE(json.ok()) << json.status();
  return json.ok() ? *json : Json();
}

std::string TempDir(const std::string& name) {
  std::string path = testing::TempDir() + "/sweep_" + name;
  std::filesystem::remove_all(path);
  return path;
}

constexpr const char* kSmallConfig = R"({
  "platforms": ["giraph", "pgxd"],
  "algorithms": ["BFS", "PageRank"],
  "graphs": ["uniform:300,1200"],
  "nodes": [4],
  "iterations": 5
})";

// ------------------------------------------------------- config parsing ----

TEST(SweepSpecTest, ParsesTheFullConfigForm) {
  Result<SweepSpec> spec = SweepSpec::FromJson(ParseJson(R"({
    "platforms": ["giraph", "PGX.D"],
    "algorithms": "wcc",
    "graphs": ["uniform:300,1200", "uniform:600,2400"],
    "nodes": [2, 4],
    "faults": [{"name": "crash1", "spec": "crash:1:1"}],
    "iterations": 7,
    "source": 3,
    "max_attempts": 5,
    "checkpoint_interval": 1,
    "model_level": 2
  })"));
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->platforms, (std::vector<std::string>{"giraph", "PGX.D"}));
  EXPECT_EQ(spec->algorithms, std::vector<std::string>{"wcc"});
  EXPECT_EQ(spec->graphs.size(), 2u);
  EXPECT_EQ(spec->node_counts, (std::vector<uint32_t>{2, 4}));
  ASSERT_EQ(spec->faults.size(), 1u);
  EXPECT_EQ(spec->faults[0].name, "crash1");
  EXPECT_EQ(spec->faults[0].spec, "crash:1:1");
  EXPECT_EQ(spec->iterations, 7u);
  EXPECT_EQ(spec->source, 3);
  EXPECT_EQ(spec->max_attempts, 5u);
  EXPECT_EQ(spec->checkpoint_interval, 1u);
  EXPECT_EQ(spec->model_level, 2);
}

TEST(SweepSpecTest, UnknownKeyIsRejected) {
  Result<SweepSpec> spec = SweepSpec::FromJson(ParseJson(
      R"({"platforms": ["pgxd"], "algorithms": ["BFS"],
          "graphs": ["uniform:300,1200"], "platfroms": ["giraph"]})"));
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("platfroms"), std::string::npos);
}

TEST(SweepSpecTest, MissingRequiredAxisIsRejected) {
  Result<SweepSpec> spec = SweepSpec::FromJson(
      ParseJson(R"({"platforms": ["pgxd"], "algorithms": ["BFS"]})"));
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("graphs"), std::string::npos);
}

TEST(SweepSpecTest, NonPositiveNodeCountIsRejected) {
  Result<SweepSpec> spec = SweepSpec::FromJson(ParseJson(
      R"({"platforms": ["pgxd"], "algorithms": ["BFS"],
          "graphs": ["uniform:300,1200"], "nodes": [4, 0]})"));
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("nodes"), std::string::npos);
}

TEST(SweepSpecTest, FaultEntryWithoutNameIsRejected) {
  Result<SweepSpec> spec = SweepSpec::FromJson(ParseJson(
      R"({"platforms": ["pgxd"], "algorithms": ["BFS"],
          "graphs": ["uniform:300,1200"],
          "faults": [{"spec": "crash:1:1"}]})"));
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("name"), std::string::npos);
}

TEST(SweepSpecTest, FromJsonFileReportsParseErrorsWithThePath) {
  std::string path = testing::TempDir() + "/sweep_bad_config.json";
  std::ofstream(path) << "{not json";
  Result<SweepSpec> spec = SweepSpec::FromJsonFile(path);
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find(path), std::string::npos);
}

// ----------------------------------------------------------- expansion ----

TEST(ExpandSweepTest, NamesAreDeterministicAndPlatformMajor) {
  SweepSpec spec;
  spec.platforms = {"giraph", "PGX.D"};  // any spelling resolves
  spec.algorithms = {"BFS", "pagerank"};
  spec.graphs = {"uniform:300,1200"};
  spec.node_counts = {4};
  Result<std::vector<SweepJob>> jobs = ExpandSweep(spec);
  ASSERT_TRUE(jobs.ok()) << jobs.status();
  ASSERT_EQ(jobs->size(), 4u);
  EXPECT_EQ((*jobs)[0].name, "giraph-bfs-uniform-300-1200-n4");
  EXPECT_EQ((*jobs)[1].name, "giraph-pagerank-uniform-300-1200-n4");
  EXPECT_EQ((*jobs)[2].name, "pgxd-bfs-uniform-300-1200-n4");
  EXPECT_EQ((*jobs)[3].name, "pgxd-pagerank-uniform-300-1200-n4");
  EXPECT_EQ((*jobs)[3].algorithm, "PageRank");
}

TEST(ExpandSweepTest, FaultAxisAppendsSuffixAndRetryPolicy) {
  SweepSpec spec;
  spec.platforms = {"giraph"};
  spec.algorithms = {"BFS"};
  spec.graphs = {"uniform:300,1200"};
  spec.node_counts = {4};
  spec.faults = {{"clean", ""}, {"crash1", "crash:1:1"}};
  spec.max_attempts = 6;
  Result<std::vector<SweepJob>> jobs = ExpandSweep(spec);
  ASSERT_TRUE(jobs.ok()) << jobs.status();
  ASSERT_EQ(jobs->size(), 2u);
  EXPECT_EQ((*jobs)[0].name, "giraph-bfs-uniform-300-1200-n4-clean");
  EXPECT_EQ((*jobs)[1].name, "giraph-bfs-uniform-300-1200-n4-crash1");
  EXPECT_TRUE((*jobs)[0].faults.empty());
  EXPECT_EQ((*jobs)[1].faults.specs().size(), 1u);
  EXPECT_EQ((*jobs)[1].faults.retry.max_attempts, 6u);
}

TEST(ExpandSweepTest, BadAxisValuesFailBeforeAnythingRuns) {
  SweepSpec spec;
  spec.platforms = {"giraph"};
  spec.algorithms = {"BFS"};
  spec.graphs = {"uniform:300,1200"};

  SweepSpec bad_platform = spec;
  bad_platform.platforms = {"spark"};
  EXPECT_FALSE(ExpandSweep(bad_platform).ok());

  SweepSpec bad_algorithm = spec;
  bad_algorithm.algorithms = {"BFSS"};
  EXPECT_FALSE(ExpandSweep(bad_algorithm).ok());

  SweepSpec bad_fault = spec;
  bad_fault.faults = {{"boom", "crash:x:1"}};
  EXPECT_FALSE(ExpandSweep(bad_fault).ok());

  SweepSpec duplicate = spec;
  duplicate.platforms = {"giraph", "GIRAPH"};
  Result<std::vector<SweepJob>> jobs = ExpandSweep(duplicate);
  ASSERT_FALSE(jobs.ok());
  EXPECT_NE(jobs.status().message().find("duplicate"), std::string::npos);
}

TEST(ExpandSweepTest, UnsupportedPlatformAlgorithmPairsAreRejected) {
  SweepSpec spec;
  spec.platforms = {"giraph", "powergraph", "hadoop"};
  spec.algorithms = {"BFS", "LCC"};
  spec.graphs = {"uniform:300,1200"};
  Result<std::vector<SweepJob>> jobs = ExpandSweep(spec);
  ASSERT_FALSE(jobs.ok());
  EXPECT_EQ(jobs.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(jobs.status().message().find("giraph cannot run LCC"),
            std::string::npos)
      << jobs.status();

  // CDLP has a Pregel program but no GAS one.
  spec.algorithms = {"CDLP"};
  jobs = ExpandSweep(spec);
  ASSERT_FALSE(jobs.ok());
  EXPECT_NE(jobs.status().message().find("powergraph cannot run CDLP"),
            std::string::npos)
      << jobs.status();

  spec.platforms = {"giraph", "hadoop"};
  jobs = ExpandSweep(spec);
  ASSERT_TRUE(jobs.ok()) << jobs.status();
  EXPECT_EQ(jobs->size(), 2u);
}

// ---------------------------------------------------------- end to end ----

std::map<std::string, std::string> RepoFiles(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    // The repository index carries wall-clock save times; the determinism
    // contract is about the archive bodies.
    if (entry.path().filename() == "index.json") continue;
    std::ifstream in(entry.path());
    std::stringstream buffer;
    buffer << in.rdbuf();
    files[entry.path().filename().string()] = buffer.str();
  }
  return files;
}

TEST(RunSweepTest, SweepLandsInOneRepositoryWithMetadata) {
  Result<SweepSpec> spec = SweepSpec::FromJson(ParseJson(kSmallConfig));
  ASSERT_TRUE(spec.ok()) << spec.status();
  SweepOptions options;
  options.repo_dir = TempDir("e2e");
  Result<SweepResult> sweep = RunSweep(*spec, options);
  ASSERT_TRUE(sweep.ok()) << sweep.status();
  ASSERT_EQ(sweep->jobs.size(), 4u);
  EXPECT_TRUE(sweep->all_completed);
  EXPECT_EQ(sweep->archive_names,
            (std::vector<std::string>{"giraph-bfs-uniform-300-1200-n4",
                                      "giraph-pagerank-uniform-300-1200-n4",
                                      "pgxd-bfs-uniform-300-1200-n4",
                                      "pgxd-pagerank-uniform-300-1200-n4"}));
  for (const SweepJobSummary& job : sweep->jobs) {
    EXPECT_GT(job.total_seconds, 0) << job.name;
    EXPECT_GT(job.operations, 0u) << job.name;
  }

  core::ArchiveRepository repo(options.repo_dir);
  Result<std::vector<core::SweepSummary>> entries =
      core::ScanSweepSummaries(repo, 0);
  ASSERT_TRUE(entries.ok()) << entries.status();
  ASSERT_EQ(entries->size(), 4u);
  // List() sorts by name; bfs < pagerank, giraph < pgxd.
  EXPECT_EQ((*entries)[0].platform, "giraph");
  EXPECT_EQ((*entries)[0].algorithm, "BFS");
  EXPECT_EQ((*entries)[0].graph, "uniform:300,1200");
  EXPECT_EQ((*entries)[0].nodes, 4u);
  EXPECT_EQ((*entries)[0].graph_vertices, 300u);
  EXPECT_EQ((*entries)[3].platform, "pgxd");
  EXPECT_EQ((*entries)[3].algorithm, "PageRank");
}

TEST(RunSweepTest, RepositoryBytesAreIdenticalAcrossHostThreadCounts) {
  Result<SweepSpec> spec = SweepSpec::FromJson(ParseJson(kSmallConfig));
  ASSERT_TRUE(spec.ok()) << spec.status();

  int original_threads = ThreadPool::Global().num_threads();
  std::map<std::string, std::string> reference;
  for (int threads : {1, 2, 8}) {
    ThreadPool::Global().Resize(threads);
    SweepOptions options;
    options.repo_dir = TempDir("threads_" + std::to_string(threads));
    Result<SweepResult> sweep = RunSweep(*spec, options);
    ASSERT_TRUE(sweep.ok()) << sweep.status();
    std::map<std::string, std::string> files = RepoFiles(options.repo_dir);
    EXPECT_EQ(files.size(), 4u);
    if (reference.empty()) {
      reference = std::move(files);
    } else {
      EXPECT_EQ(files, reference) << "archives differ at " << threads
                                  << " host threads";
    }
  }
  ThreadPool::Global().Resize(original_threads);
}

TEST(RunSweepTest, UnsupportedPairFailsBeforeAnyArchiveIsSaved) {
  SweepSpec spec;
  spec.platforms = {"giraph", "powergraph", "hadoop"};
  spec.algorithms = {"BFS", "LCC", "CDLP"};
  spec.graphs = {"uniform:300,1200"};
  spec.node_counts = {2};
  SweepOptions options;
  options.repo_dir = TempDir("unsupported");
  Result<SweepResult> sweep = RunSweep(spec, options);
  ASSERT_FALSE(sweep.ok());
  EXPECT_EQ(sweep.status().code(), StatusCode::kInvalidArgument);
  bool saved_any = false;
  if (std::filesystem::exists(options.repo_dir)) {
    for (const auto& entry :
         std::filesystem::directory_iterator(options.repo_dir)) {
      saved_any = saved_any || entry.path().filename() != "index.json";
    }
  }
  EXPECT_FALSE(saved_any) << "an archive was saved before the sweep failed";
}

TEST(RunSweepTest, BadGraphSpecNamesTheGraph) {
  SweepSpec spec;
  spec.platforms = {"pgxd"};
  spec.algorithms = {"BFS"};
  spec.graphs = {"uniform:nope"};
  SweepOptions options;
  options.repo_dir = TempDir("badgraph");
  Result<SweepResult> sweep = RunSweep(spec, options);
  ASSERT_FALSE(sweep.ok());
  EXPECT_NE(sweep.status().message().find("uniform:nope"), std::string::npos);
}

}  // namespace
}  // namespace granula::bench
