// In-process CLI dispatch: RunGranula() is the whole `granula` binary
// minus main(), so every exit-code contract is testable without forking.

#include "granula_commands.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/socket.h"
#include "granula/archive/archiver.h"
#include "granula/archive/gba.h"
#include "granula/archive/repository.h"
#include "granula/archive/view.h"
#include "granula/model/performance_model.h"
#include "granula/monitor/job_logger.h"
#include "legacy_repository.h"

namespace granula::cli {
namespace {

// Captures one FILE* stream to a temp file and reads it back.
class Capture {
 public:
  explicit Capture(const std::string& name)
      : path_(testing::TempDir() + "/cli_" + name + ".txt"),
        file_(std::fopen(path_.c_str(), "w+")) {}
  ~Capture() {
    if (file_ != nullptr) std::fclose(file_);
  }

  std::FILE* file() { return file_; }

  std::string text() {
    std::fflush(file_);
    std::ifstream in(path_);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

 private:
  std::string path_;
  std::FILE* file_;
};

int RunCli(const std::vector<std::string>& args, Capture* out, Capture* err) {
  return RunGranula(args, out->file(), err->file());
}

std::string TempPath(const std::string& name) {
  std::string path = testing::TempDir() + "/cli_" + name;
  std::error_code ec;
  std::filesystem::remove(path, ec);
  return path;
}

// A minimal archive whose root runs for `seconds`; used to manufacture
// baseline/candidate pairs for `granula compare`.
void WriteArchiveFile(const std::string& path, double seconds) {
  SimTime now;
  core::JobLogger logger([&now] { return now; });
  core::OpId root =
      logger.StartOperation(core::kNoOp, "Job", "job", "Root", "Root");
  now = SimTime::Seconds(seconds);
  logger.EndOperation(root);
  core::PerformanceModel model("m");
  ASSERT_TRUE(model.AddRoot("Job", "Root").ok());
  auto archive = core::Archiver().Build(model, logger.records(), {}, {});
  ASSERT_TRUE(archive.ok()) << archive.status();
  std::ofstream(path) << archive.value().ToJsonString();
}

TEST(CliTest, NoArgumentsIsAUsageError) {
  Capture out("usage_out"), err("usage_err");
  EXPECT_EQ(RunCli({}, &out, &err), kExitUsage);
  EXPECT_NE(err.text().find("usage:"), std::string::npos);
}

TEST(CliTest, UnknownCommandIsAUsageError) {
  Capture out("unknown_out"), err("unknown_err");
  EXPECT_EQ(RunCli({"frobnicate"}, &out, &err), kExitUsage);
  EXPECT_NE(err.text().find("unknown command"), std::string::npos);
}

TEST(CliTest, PositionalArgumentIsAUsageError) {
  Capture out("pos_out"), err("pos_err");
  EXPECT_EQ(RunCli({"run", "giraph"}, &out, &err), kExitUsage);
  EXPECT_NE(err.text().find("unexpected argument"), std::string::npos);
}

TEST(CliTest, MissingRequiredFlagIsFatal) {
  Capture out("fatal_out"), err("fatal_err");
  EXPECT_EQ(RunCli({"analyze"}, &out, &err), kExitFatal);
  EXPECT_NE(err.text().find("granula:"), std::string::npos);
}

TEST(CliTest, RunLintAnalyzeRoundTripExitsZero) {
  std::string archive_path = TempPath("roundtrip.json");
  std::string log_path = TempPath("roundtrip.jsonl");
  {
    Capture out("run_out"), err("run_err");
    EXPECT_EQ(RunCli({"run", "--platform=pgxd", "--graph=uniform:400,1600",
                   "--nodes=4", "--workers=4",
                   "--archive-out=" + archive_path,
                   "--log-out=" + log_path},
                  &out, &err),
              kExitOk)
        << err.text();
    EXPECT_TRUE(std::filesystem::exists(archive_path));
    EXPECT_TRUE(std::filesystem::exists(log_path));
  }
  {
    Capture out("lint_out"), err("lint_err");
    EXPECT_EQ(RunCli({"lint", "--log=" + log_path, "--model=pgxd"}, &out, &err),
              kExitOk)
        << err.text();
    EXPECT_NE(out.text().find("record(s)"), std::string::npos);
  }
  {
    Capture out("analyze_out"), err("analyze_err");
    EXPECT_EQ(RunCli({"analyze", "--archive=" + archive_path}, &out, &err),
              kExitOk)
        << err.text();
  }
}

TEST(CliTest, FatalLintDefectsExitThree) {
  // An EndOp with no StartOp is a fatal defect class.
  std::string log_path = TempPath("fatal.jsonl");
  {
    SimTime now;
    core::JobLogger logger([&now] { return now; });
    core::OpId root =
        logger.StartOperation(core::kNoOp, "Job", "job", "Root", "Root");
    now = SimTime::Seconds(1);
    logger.EndOperation(root);
    std::vector<core::LogRecord> records = logger.TakeRecords();
    core::LogRecord orphan;
    orphan.kind = core::LogRecord::Kind::kEndOp;
    orphan.seq = 99;
    orphan.time = SimTime::Seconds(2);
    orphan.op_id = 777;
    records.push_back(orphan);
    std::ofstream file(log_path);
    for (const core::LogRecord& r : records) {
      file << r.ToJson().Dump(0) << "\n";
    }
  }
  Capture out("lint3_out"), err("lint3_err");
  EXPECT_EQ(RunCli({"lint", "--log=" + log_path}, &out, &err), kExitFatalLint);
}

TEST(CliTest, CompareExitsTwoOnRegressionsAndZeroWhenClean) {
  std::string baseline = TempPath("baseline.json");
  std::string slower = TempPath("slower.json");
  WriteArchiveFile(baseline, 1.0);
  WriteArchiveFile(slower, 2.0);
  {
    Capture out("cmp2_out"), err("cmp2_err");
    EXPECT_EQ(RunCli({"compare", "--baseline=" + baseline,
                   "--candidate=" + slower},
                  &out, &err),
              kExitRegressions)
        << err.text();
  }
  {
    Capture out("cmp0_out"), err("cmp0_err");
    EXPECT_EQ(RunCli({"compare", "--baseline=" + baseline,
                   "--candidate=" + baseline},
                  &out, &err),
              kExitOk)
        << err.text();
  }
}

TEST(CliTest, WatchTimeoutExitsFive) {
  Capture out("watch_out"), err("watch_err");
  EXPECT_EQ(RunCli({"watch", "--log=" + TempPath("never_written.jsonl"),
                 "--model=pgxd", "--timeout=0.2", "--poll-ms=10", "--quiet"},
                &out, &err),
            kExitWatchTimeout)
        << err.text();
}

TEST(CliTest, FaultedRunRecoversAndReportsLostTime) {
  std::string archive_path = TempPath("faulted.json");
  Capture out("fault_out"), err("fault_err");
  EXPECT_EQ(RunCli({"run", "--platform=powergraph",
                 "--graph=uniform:400,1600", "--nodes=4", "--workers=4",
                 "--fault=crash:2:1", "--archive-out=" + archive_path},
                &out, &err),
            kExitOk)
      << err.text();
  EXPECT_NE(out.text().find("fault injection: 1 failed attempt(s)"),
            std::string::npos)
      << out.text();
  EXPECT_TRUE(std::filesystem::exists(archive_path));
}

TEST(CliTest, UnrecoverableFaultPlanExitsOne) {
  Capture out("unrec_out"), err("unrec_err");
  EXPECT_EQ(RunCli({"run", "--platform=powergraph",
                 "--graph=uniform:400,1600", "--nodes=4", "--workers=4",
                 "--fault=crash:2:1:9", "--max-attempts=3"},
                &out, &err),
            kExitFatal)
      << err.text();
  EXPECT_NE(out.text().find("did NOT complete"), std::string::npos)
      << out.text();
}

TEST(CliTest, MalformedFaultSpecIsFatal) {
  for (const char* bad : {"--fault=crash:2", "--fault=storage",
                          "--fault=wedge:1:2", "--fault=logdrop"}) {
    Capture out("badfault_out"), err("badfault_err");
    EXPECT_EQ(RunCli({"run", "--platform=pgxd", "--graph=uniform:400,1600",
                   "--nodes=4", "--workers=4", bad},
                  &out, &err),
              kExitFatal)
        << bad << " should be rejected";
    EXPECT_NE(err.text().find("granula:"), std::string::npos) << bad;
  }
}

TEST(CliTest, ModelCommandRendersTheModelTree) {
  Capture out("model_out"), err("model_err");
  EXPECT_EQ(RunCli({"model", "--name=powergraph"}, &out, &err), kExitOk);
  EXPECT_NE(out.text().find("PowerGraph"), std::string::npos);
}

// ------------------------------------------------------------ slow-node --

// The old parser ran strtoull/atof on the fields, so "--slow-node=abc:xyz"
// silently became "node 0 at factor 0.0" — a frozen node instead of an
// error. Every malformed spec must now be a usage error (exit 64).
TEST(CliTest, MalformedSlowNodeIsAUsageError) {
  for (const char* bad :
       {"--slow-node=abc:xyz", "--slow-node=1", "--slow-node=1:2:3",
        "--slow-node=1x:2.0", "--slow-node=1:2.0x", "--slow-node=1:nan"}) {
    Capture out("slownode_out"), err("slownode_err");
    EXPECT_EQ(RunCli({"run", "--platform=pgxd", "--graph=uniform:400,1600",
                   "--nodes=4", "--workers=4", bad},
                  &out, &err),
              kExitUsage)
        << bad << " should be a usage error";
    EXPECT_NE(err.text().find("--slow-node"), std::string::npos) << bad;
  }
}

TEST(CliTest, NonPositiveSlowNodeFactorIsAUsageError) {
  for (const char* bad : {"--slow-node=1:0", "--slow-node=1:-2.0"}) {
    Capture out("slowfac_out"), err("slowfac_err");
    EXPECT_EQ(RunCli({"run", "--platform=pgxd", "--graph=uniform:400,1600",
                   "--nodes=4", "--workers=4", bad},
                  &out, &err),
              kExitUsage)
        << bad;
    EXPECT_NE(err.text().find("positive"), std::string::npos) << bad;
  }
}

TEST(CliTest, OutOfRangeSlowNodeIdIsAUsageError) {
  Capture out("slowrange_out"), err("slowrange_err");
  EXPECT_EQ(RunCli({"run", "--platform=pgxd", "--graph=uniform:400,1600",
                 "--nodes=4", "--workers=4", "--slow-node=9:2.0"},
                &out, &err),
            kExitUsage);
  EXPECT_NE(err.text().find("out of range"), std::string::npos);
}

TEST(CliTest, ValidSlowNodeStillRuns) {
  Capture out("slowok_out"), err("slowok_err");
  EXPECT_EQ(RunCli({"run", "--platform=pgxd", "--graph=uniform:400,1600",
                 "--nodes=4", "--workers=4", "--slow-node=1:2.0"},
                &out, &err),
            kExitOk)
      << err.text();
}

// ----------------------------------------------------------------- bench --

std::string WriteSweepConfig(const std::string& name,
                             const std::string& json) {
  std::string path = TempPath(name);
  std::ofstream(path) << json;
  return path;
}

// Repository directories must start empty: the bench report scans every
// archive in the directory, so leftovers from a previous test run would
// leak into the comparison.
std::string FreshRepoDir(const std::string& name) {
  std::string path = testing::TempDir() + "/cli_" + name;
  std::filesystem::remove_all(path);
  return path;
}

constexpr const char* kBenchConfig = R"({
  "platforms": ["pgxd", "graphmat"],
  "algorithms": ["BFS", "PageRank"],
  "graphs": ["uniform:200,800"],
  "nodes": [2],
  "iterations": 4
})";

TEST(CliTest, BenchConfigAndAxisErrorsAreUsageErrors) {
  {
    Capture out("bench64a_out"), err("bench64a_err");
    EXPECT_EQ(RunCli({"bench"}, &out, &err), kExitUsage);  // no axes at all
  }
  {
    Capture out("bench64b_out"), err("bench64b_err");
    EXPECT_EQ(RunCli({"bench", "--config=" + TempPath("no_such_config.json")},
                  &out, &err),
              kExitUsage);
    EXPECT_NE(err.text().find("sweep config"), std::string::npos);
  }
  {
    Capture out("bench64c_out"), err("bench64c_err");
    EXPECT_EQ(RunCli({"bench", "--platforms=spark", "--algorithms=BFS",
                   "--graphs=uniform:200,800"},
                  &out, &err),
              kExitUsage);
    EXPECT_NE(err.text().find("unknown platform"), std::string::npos);
  }
  {
    Capture out("bench64d_out"), err("bench64d_err");
    EXPECT_EQ(RunCli({"bench", "--platforms=pgxd", "--algorithms=BFS",
                   "--graphs=uniform:200,800", "--nodes=two"},
                  &out, &err),
              kExitUsage);
    EXPECT_NE(err.text().find("--nodes"), std::string::npos);
  }
  {
    Capture out("bench64e_out"), err("bench64e_err");
    EXPECT_EQ(RunCli({"bench", "--platforms=pgxd", "--algorithms=BFS",
                   "--graphs=uniform:200,800", "--faults=crash:1:1"},
                  &out, &err),
              kExitUsage);
    EXPECT_NE(err.text().find("NAME=SPEC"), std::string::npos);
  }
}

// True when `dir` holds any file but the repository index.
bool HoldsAnArchive(const std::string& dir) {
  if (!std::filesystem::exists(dir)) return false;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename() != "index.json") return true;
  }
  return false;
}

TEST(CliTest, UnsupportedPlatformAlgorithmPairIsAUsageErrorBeforeAnyWork) {
  {
    Capture out("unsupported_run_out"), err("unsupported_run_err");
    const std::string repo = FreshRepoDir("unsupported_run_repo");
    EXPECT_EQ(RunCli({"run", "--platform=powergraph", "--algorithm=CDLP",
                      "--graph=uniform:200,800", "--nodes=2",
                      "--save-repo=" + repo},
                     &out, &err),
              kExitUsage);
    EXPECT_NE(err.text().find("powergraph cannot run CDLP"),
              std::string::npos)
        << err.text();
    EXPECT_FALSE(HoldsAnArchive(repo));
  }
  {
    Capture out("unsupported_bench_out"), err("unsupported_bench_err");
    const std::string repo = FreshRepoDir("unsupported_bench_repo");
    EXPECT_EQ(RunCli({"bench", "--platforms=giraph,powergraph,hadoop",
                      "--algorithms=BFS,LCC,CDLP",
                      "--graphs=uniform:200,800", "--nodes=2",
                      "--repo=" + repo},
                     &out, &err),
              kExitUsage);
    EXPECT_NE(err.text().find("cannot run LCC"), std::string::npos)
        << err.text();
    EXPECT_FALSE(HoldsAnArchive(repo));
  }
}

TEST(CliTest, RunAndBenchNumericFlagsAreStrict) {
  for (const char* bad :
       {"--iterations=abc", "--max-attempts=-1", "--source=-3",
        "--model-level=two", "--checkpoint-interval=1.5"}) {
    const std::string text = bad;
    const std::string flag = text.substr(0, text.find('='));
    {
      Capture out("strict_run_out"), err("strict_run_err");
      const std::string repo = FreshRepoDir("strict_run_repo");
      EXPECT_EQ(RunCli({"run", "--platform=pgxd", "--graph=uniform:200,800",
                        "--nodes=2", "--save-repo=" + repo, bad},
                       &out, &err),
                kExitUsage)
          << bad;
      EXPECT_NE(err.text().find("bad " + flag), std::string::npos)
          << bad << ": " << err.text();
      EXPECT_FALSE(HoldsAnArchive(repo)) << bad;
    }
    {
      Capture out("strict_bench_out"), err("strict_bench_err");
      const std::string repo = FreshRepoDir("strict_bench_repo");
      EXPECT_EQ(RunCli({"bench", "--platforms=pgxd", "--algorithms=BFS",
                        "--graphs=uniform:200,800", "--nodes=2",
                        "--repo=" + repo, bad},
                       &out, &err),
                kExitUsage)
          << bad;
      EXPECT_NE(err.text().find("bad " + flag), std::string::npos)
          << bad << ": " << err.text();
      EXPECT_FALSE(HoldsAnArchive(repo)) << bad;
    }
  }
  for (const char* bad : {"--workers=-1", "--fault-seed=x", "--nodes=8x"}) {
    Capture out("strict_run2_out"), err("strict_run2_err");
    EXPECT_EQ(RunCli({"run", "--platform=pgxd", "--graph=uniform:200,800",
                      bad},
                     &out, &err),
              kExitUsage)
        << bad;
  }
  for (const char* bad : {"--tolerance=-0.1", "--depth=x"}) {
    Capture out("strict_bench2_out"), err("strict_bench2_err");
    EXPECT_EQ(RunCli({"bench", "--platforms=pgxd", "--algorithms=BFS",
                      "--graphs=uniform:200,800", "--nodes=2",
                      "--repo=" + FreshRepoDir("strict_bench2_repo"), bad},
                     &out, &err),
              kExitUsage)
        << bad;
  }
}

TEST(CliTest, AnalyzeCompareAndQueryNumericFlagsAreStrict) {
  const std::string archive = TempPath("strict_archive.json");
  WriteArchiveFile(archive, 10.0);
  {
    Capture out("strict_analyze_out"), err("strict_analyze_err");
    EXPECT_EQ(RunCli({"analyze", "--archive=" + archive, "--capacity=lots"},
                     &out, &err),
              kExitUsage);
  }
  for (const char* bad : {"--tolerance=abc", "--depth=-1"}) {
    Capture out("strict_compare_out"), err("strict_compare_err");
    EXPECT_EQ(RunCli({"compare", "--baseline=" + archive,
                      "--candidate=" + archive, bad},
                     &out, &err),
              kExitUsage)
        << bad;
  }
  {
    Capture out("strict_query_out"), err("strict_query_err");
    const std::string repo = FreshRepoDir("strict_query_repo");
    std::filesystem::create_directories(repo);
    EXPECT_EQ(RunCli({"query", "--repo=" + repo, "--since=yesterday"}, &out,
                     &err),
              kExitUsage);
  }
}

TEST(CliTest, BenchSweepGateExitCodes) {
  std::string config = WriteSweepConfig("bench_config.json", kBenchConfig);
  std::string baseline_repo = FreshRepoDir("bench_baseline_repo");
  std::string report_path = TempPath("bench_report.txt");
  {
    // Run the sweep and write the comparative report.
    Capture out("bench_out"), err("bench_err");
    EXPECT_EQ(RunCli({"bench", "--config=" + config,
                   "--repo=" + baseline_repo,
                   "--report-out=" + report_path},
                  &out, &err),
              kExitOk)
        << err.text();
    EXPECT_NE(out.text().find("sweep: 4 job(s)"), std::string::npos)
        << out.text();
    EXPECT_NE(out.text().find("pgxd-bfs-uniform-200-800-n2"),
              std::string::npos);
    // The comparative report lists both platforms under one workload.
    EXPECT_NE(out.text().find("BFS on uniform:200,800, 2 nodes"),
              std::string::npos);
    EXPECT_TRUE(std::filesystem::exists(report_path));
  }
  {
    // Same config vs. its own baseline: gate passes.
    Capture out("benchok_out"), err("benchok_err");
    EXPECT_EQ(RunCli({"bench", "--config=" + config,
                   "--repo=" + FreshRepoDir("bench_repo_same"),
                   "--baseline=" + baseline_repo},
                  &out, &err),
              kExitOk)
        << err.text();
    EXPECT_NE(out.text().find("[OK]"), std::string::npos);
  }
  {
    // Doubling PageRank's iterations is a genuine slowdown: gate fails.
    Capture out("benchfail_out"), err("benchfail_err");
    EXPECT_EQ(RunCli({"bench", "--config=" + config, "--iterations=8",
                   "--repo=" + FreshRepoDir("bench_repo_slow"),
                   "--baseline=" + baseline_repo},
                  &out, &err),
              kExitRegressions)
        << err.text();
    EXPECT_NE(out.text().find("[FAIL]"), std::string::npos);
  }
  {
    // ... but an extreme tolerance lets the same sweep through.
    Capture out("benchtol_out"), err("benchtol_err");
    EXPECT_EQ(RunCli({"bench", "--config=" + config, "--iterations=8",
                   "--repo=" + FreshRepoDir("bench_repo_tol"),
                   "--baseline=" + baseline_repo, "--tolerance=50"},
                  &out, &err),
              kExitOk)
        << err.text();
  }
  {
    // A candidate sweep that drops a baseline job also fails the gate.
    Capture out("benchmiss_out"), err("benchmiss_err");
    EXPECT_EQ(RunCli({"bench", "--config=" + config, "--algorithms=BFS",
                   "--repo=" + FreshRepoDir("bench_repo_missing"),
                   "--baseline=" + baseline_repo},
                  &out, &err),
              kExitRegressions)
        << err.text();
    EXPECT_NE(out.text().find("MISSING"), std::string::npos);
  }
}

TEST(CliTest, PackImportsLegacyAndQueryExports) {
  // Build a small repository via `run --save-repo`, rewrite it in the
  // legacy JSON layout, see it refused until `pack` imports it, then
  // query it by filter / name / subtree path — all exit 0.
  std::string repo = FreshRepoDir("packquery_repo");
  {
    Capture out("pq_run_out"), err("pq_run_err");
    ASSERT_EQ(RunCli({"run", "--platform=pgxd", "--graph=uniform:400,1600",
                   "--save-repo=" + repo},
                  &out, &err),
              kExitOk)
        << err.text();
  }
  {
    auto saved = core::ArchiveRepository(repo).Load("pgxd-BFS-001");
    ASSERT_TRUE(saved.ok()) << saved.status();
    std::filesystem::remove_all(repo);
    core::WriteLegacyRepository(repo, {{"pgxd-BFS-001", &*saved, 100}});
  }
  {
    Capture out("pq_legacy_out"), err("pq_legacy_err");
    EXPECT_EQ(RunCli({"list", "--repo=" + repo}, &out, &err), kExitFatal);
    EXPECT_NE(err.text().find("granula pack --repo="), std::string::npos)
        << err.text();
  }
  {
    Capture out("pq_pack_out"), err("pq_pack_err");
    EXPECT_EQ(RunCli({"pack", "--repo=" + repo}, &out, &err), kExitOk)
        << err.text();
    EXPECT_NE(out.text().find("1 archive(s) converted to gba"),
              std::string::npos)
        << out.text();
  }
  {
    // Index-only filter query: one matching row, no body opened.
    Capture out("pq_q1_out"), err("pq_q1_err");
    EXPECT_EQ(RunCli({"query", "--repo=" + repo, "--platform=pgxd"},
                  &out, &err),
              kExitOk)
        << err.text();
    EXPECT_NE(out.text().find("pgxd-BFS-001"), std::string::npos);
    EXPECT_NE(out.text().find("gba"), std::string::npos);
  }
  {
    // Subtree fetch through the packed body prints that operation's JSON.
    Capture out("pq_q2_out"), err("pq_q2_err");
    EXPECT_EQ(RunCli({"query", "--repo=" + repo, "--name=pgxd-BFS-001",
                   "--path=PgxdJob"},
                  &out, &err),
              kExitOk)
        << err.text();
    EXPECT_NE(out.text().find("\"mission_type\""), std::string::npos);
  }
  {
    // JSON leaves a repository only one archive at a time.
    Capture out("pq_unpack_out"), err("pq_unpack_err");
    EXPECT_EQ(RunCli({"pack", "--repo=" + repo, "--to=json"}, &out, &err),
              kExitUsage);
    EXPECT_NE(err.text().find("granula query"), std::string::npos)
        << err.text();
  }
}

TEST(CliTest, PackRejectsUnknownFormat) {
  Capture out("packbad_out"), err("packbad_err");
  EXPECT_EQ(RunCli({"pack", "--repo=" + FreshRepoDir("packbad_repo"),
                 "--to=xml"},
                &out, &err),
            kExitUsage);
  EXPECT_NE(err.text().find("granula pack:"), std::string::npos);
}

TEST(CliTest, QueryMissingNameIsFatal) {
  std::string repo = FreshRepoDir("querymiss_repo");
  {
    Capture out("qm_run_out"), err("qm_run_err");
    ASSERT_EQ(RunCli({"run", "--platform=pgxd", "--graph=uniform:400,1600",
                   "--save-repo=" + repo},
                  &out, &err),
              kExitOk)
        << err.text();
  }
  Capture out("qm_out"), err("qm_err");
  EXPECT_EQ(RunCli({"query", "--repo=" + repo, "--name=never-saved"},
                &out, &err),
            kExitFatal);
}

TEST(CliTest, QueryGbaDumpMatchesTheWireEncoder) {
  // `query --format=gba --out=FILE` must write the exact bytes the serve
  // daemon would hand to an `Accept: application/x-granula-gba` client.
  std::string repo = FreshRepoDir("querygba_repo");
  {
    Capture out("qg_run_out"), err("qg_run_err");
    ASSERT_EQ(RunCli({"run", "--platform=pgxd", "--graph=uniform:400,1600",
                   "--save-repo=" + repo},
                  &out, &err),
              kExitOk)
        << err.text();
  }
  const std::string dump = TempPath("querygba.gba");
  {
    Capture out("qg_out"), err("qg_err");
    EXPECT_EQ(RunCli({"query", "--repo=" + repo, "--name=pgxd-BFS-001",
                   "--path=PgxdJob", "--format=gba", "--out=" + dump},
                  &out, &err),
              kExitOk)
        << err.text();
    EXPECT_NE(out.text().find("GBA byte"), std::string::npos);
  }
  std::ifstream in(dump, std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  core::ArchiveRepository reader_repo(repo);
  auto subtree = reader_repo.FetchSubtree("pgxd-BFS-001", "PgxdJob");
  ASSERT_TRUE(subtree.ok()) << subtree.status();
  EXPECT_EQ(bytes.str(), core::EncodeGbaSubtree(**subtree));

  // The dump is a standalone, decodable GBA file. The view borrows its
  // bytes, so they must outlive it.
  const std::string gba = bytes.str();
  auto view = core::ArchiveView::Open(gba);
  ASSERT_TRUE(view.ok()) << view.status();
  auto decoded = view->Decode();
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->root->mission_type, (*subtree)->mission_type);

  {
    // --format=gba without --out is a usage error (binary on a terminal
    // helps nobody), as is an unknown format.
    Capture out("qg_noout_out"), err("qg_noout_err");
    EXPECT_EQ(RunCli({"query", "--repo=" + repo, "--name=pgxd-BFS-001",
                   "--path=PgxdJob", "--format=gba"},
                  &out, &err),
              kExitUsage);
    EXPECT_NE(err.text().find("--out"), std::string::npos);
  }
  {
    Capture out("qg_badfmt_out"), err("qg_badfmt_err");
    EXPECT_EQ(RunCli({"query", "--repo=" + repo, "--name=pgxd-BFS-001",
                   "--path=PgxdJob", "--format=xml"},
                  &out, &err),
              kExitUsage);
  }
}

TEST(CliTest, ServeFlagErrorsExitSixtyFour) {
  Capture out1("sv_root_out"), err1("sv_root_err");
  EXPECT_EQ(RunCli({"serve"}, &out1, &err1), kExitUsage);
  EXPECT_NE(err1.text().find("--root"), std::string::npos);

  const std::string root = FreshRepoDir("serveflags_repo");
  Capture out2("sv_port_out"), err2("sv_port_err");
  EXPECT_EQ(RunCli({"serve", "--root=" + root, "--port=99999"},
                &out2, &err2),
            kExitUsage);

  Capture out3("sv_to_out"), err3("sv_to_err");
  EXPECT_EQ(RunCli({"serve", "--root=" + root, "--timeout-ms=0"},
                &out3, &err3),
            kExitUsage);

  Capture out4("sv_thr_out"), err4("sv_thr_err");
  EXPECT_EQ(RunCli({"serve", "--root=" + root, "--threads=9999"},
                &out4, &err4),
            kExitUsage);
}

TEST(CliTest, FleetFlagErrorsExitSixtyFour) {
  Capture out1("fl_root_out"), err1("fl_root_err");
  EXPECT_EQ(RunCli({"fleet"}, &out1, &err1), kExitUsage);
  EXPECT_NE(err1.text().find("--root"), std::string::npos);

  const std::string root = TempPath("fleetflags_repo");
  Capture out2("fl_port_out"), err2("fl_port_err");
  EXPECT_EQ(RunCli({"fleet", "--root=" + root, "--port=99999"},
                &out2, &err2),
            kExitUsage);

  // Malformed --source specs: no '=', unknown scheme, bad port.
  Capture out3("fl_src1_out"), err3("fl_src1_err");
  EXPECT_EQ(RunCli({"fleet", "--root=" + root, "--port=0",
                 "--source=jobwithoutspec"},
                &out3, &err3),
            kExitUsage);
  EXPECT_NE(err3.text().find("--source"), std::string::npos);

  Capture out4("fl_src2_out"), err4("fl_src2_err");
  EXPECT_EQ(RunCli({"fleet", "--root=" + root, "--port=0",
                 "--source=a=gopher://x"},
                &out4, &err4),
            kExitUsage);

  Capture out5("fl_src3_out"), err5("fl_src3_err");
  EXPECT_EQ(RunCli({"fleet", "--root=" + root, "--port=0",
                 "--source=a=tcp://localhost:notaport"},
                &out5, &err5),
            kExitUsage);

  // A webhook that is not http:// is refused up front, before anything
  // binds or spawns.
  Capture out6("fl_hook_out"), err6("fl_hook_err");
  EXPECT_EQ(RunCli({"fleet", "--root=" + root, "--port=0",
                 "--webhook=ftp://example/hook"},
                &out6, &err6),
            kExitUsage);
  EXPECT_NE(err6.text().find("--webhook"), std::string::npos);
}

// The two endpoint grammars, --webhook=http://HOST[:PORT][/PATH] and
// --source=NAME=tcp://HOST:PORT[/PATH], spelling by spelling. The fleet
// runs against an occupied --port, so an accepted spec gets as far as the
// bind (exit 1) and a refused one is a usage error (64). An accepted TCP
// source connects to `feed` before the fleet exits, and its request line
// shows the path it kept.
TEST(CliTest, EndpointGrammarTable) {
  auto occupied = TcpListener::Bind("127.0.0.1", 0);
  ASSERT_TRUE(occupied.ok()) << occupied.status();
  auto feed = TcpListener::Bind("127.0.0.1", 0);
  ASSERT_TRUE(feed.ok()) << feed.status();
  const std::string port = std::to_string(feed->port());
  struct Row {
    std::string flag;
    int exit_code;
    std::string target;  // an accepted source's GET target
  };
  const std::vector<Row> rows = {
      {"--webhook=http://127.0.0.1:9100/hook", kExitFatal, ""},
      {"--webhook=http://127.0.0.1", kExitFatal, ""},  // port 80
      {"--webhook=http://127.0.0.1/hooks/a?b=c", kExitFatal, ""},
      {"--webhook=http://127.0.0.1:65535/", kExitFatal, ""},
      {"--webhook=http://127.0.0.1:/hook", kExitUsage, ""},
      {"--webhook=http://127.0.0.1:0/hook", kExitUsage, ""},
      {"--webhook=http://127.0.0.1:65536/hook", kExitUsage, ""},
      {"--webhook=http://127.0.0.1:80x/hook", kExitUsage, ""},
      {"--webhook=http://127.0.0.1:-80/hook", kExitUsage, ""},
      {"--webhook=http://:9100/hook", kExitUsage, ""},
      {"--webhook=http:///hook", kExitUsage, ""},
      {"--webhook=https://127.0.0.1/hook", kExitUsage, ""},
      {"--webhook=ftp://127.0.0.1/hook", kExitUsage, ""},
      {"--webhook=127.0.0.1:9100/hook", kExitUsage, ""},
      {"--source=a=tcp://127.0.0.1:" + port, kExitFatal, "/"},
      {"--source=a=tcp://127.0.0.1:" + port + "/", kExitFatal, "/"},
      {"--source=a=tcp://127.0.0.1:" + port + "/feeds/a.jsonl", kExitFatal,
       "/feeds/a.jsonl"},
      {"--source=a=tcp://127.0.0.1", kExitUsage, ""},  // no default port
      {"--source=a=tcp://127.0.0.1/feed", kExitUsage, ""},
      {"--source=a=tcp://127.0.0.1:/feed", kExitUsage, ""},
      {"--source=a=tcp://127.0.0.1:0", kExitUsage, ""},
      {"--source=a=tcp://127.0.0.1:65536", kExitUsage, ""},
      {"--source=a=tcp://127.0.0.1:7o70", kExitUsage, ""},
      {"--source=a=tcp://:" + port, kExitUsage, ""},
      {"--source=a=tcp://", kExitUsage, ""},
      {"--source=a=http://127.0.0.1:" + port, kExitUsage, ""},
      {"--source=a=https://127.0.0.1:" + port, kExitUsage, ""},
      {"--source=a=ftp://127.0.0.1:" + port, kExitUsage, ""},
  };
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    const std::string root = TempPath("endpoint_" + std::to_string(i));
    Capture out("endpoint_out"), err("endpoint_err");
    EXPECT_EQ(RunCli({"fleet", "--root=" + root,
                      "--port=" + std::to_string(occupied->port()), row.flag},
                     &out, &err),
              row.exit_code)
        << row.flag << ": " << err.text();
    if (row.exit_code == kExitUsage) {
      const std::string flag = row.flag.substr(0, row.flag.find('='));
      EXPECT_NE(err.text().find(flag), std::string::npos)
          << row.flag << ": " << err.text();
    }
    if (row.target.empty()) continue;
    auto follower = feed->Accept(2000);
    ASSERT_TRUE(follower.ok() && follower->valid()) << row.flag;
    ASSERT_TRUE(follower->SetTimeouts(1000, 1000).ok());
    std::string head;
    while (head.find("\r\n") == std::string::npos &&
           follower->Read(head) == TcpSocket::ReadOutcome::kData) {
    }
    EXPECT_EQ(head.substr(0, head.find("\r\n")),
              "GET " + row.target + " HTTP/1.1")
        << row.flag;
  }
}

TEST(CliTest, FeedFlagErrorsExitSixtyFour) {
  Capture out1("fd_log_out"), err1("fd_log_err");
  EXPECT_EQ(RunCli({"feed"}, &out1, &err1), kExitUsage);
  EXPECT_NE(err1.text().find("--log"), std::string::npos);

  Capture out2("fd_port_out"), err2("fd_port_err");
  EXPECT_EQ(RunCli({"feed", "--log=/tmp/x.jsonl", "--port=99999"},
                &out2, &err2),
            kExitUsage);
}

// Numeric flags of the live commands parse strictly: garbage or a
// negative value is a usage error (64), never atoll/atof's silent 0 nor
// a negative count wrapped into a huge unsigned one.
TEST(CliTest, WatchNumericFlagsAreStrict) {
  const std::string log = "--log=" + TempPath("strict_never_written.jsonl");
  for (const char* bad :
       {"--timeout=abc", "--timeout=-1", "--poll-ms=-1", "--poll-ms=5ms",
        "--depth=-1", "--depth=x", "--stall-timeout=-1",
        "--stall-timeout=soon", "--model-level=-2", "--capacity=-4"}) {
    Capture out("watch_strict_out"), err("watch_strict_err");
    EXPECT_EQ(RunCli({"watch", log, "--timeout=0.05", "--quiet", bad}, &out,
                     &err),
              kExitUsage)
        << bad;
    const std::string text = bad;
    const std::string flag = text.substr(0, text.find('='));
    EXPECT_NE(err.text().find("bad " + flag), std::string::npos)
        << bad << ": " << err.text();
  }
}

TEST(CliTest, FleetAndFeedNumericFlagsAreStrict) {
  // An occupied port: a command that accepted the bad flag would fail
  // the bind (exit 1) instead of serving.
  auto occupied = TcpListener::Bind("127.0.0.1", 0);
  ASSERT_TRUE(occupied.ok()) << occupied.status();
  const std::string port = "--port=" + std::to_string(occupied->port());
  const std::string root = TempPath("strict_fleet_repo");
  std::filesystem::create_directories(root);
  for (const char* bad :
       {"--queue-cap=-1", "--alert-retries=-1", "--stall-timeout=abc",
        "--poll-ms=-5", "--threads=x", "--timeout-ms=1e3",
        "--alert-timeout-ms=-1", "--reconnect-budget=-1"}) {
    Capture out("fleet_strict_out"), err("fleet_strict_err");
    EXPECT_EQ(RunCli({"fleet", "--root=" + root, port, bad}, &out, &err),
              kExitUsage)
        << bad << ": " << err.text();
  }
  for (const char* bad : {"--poll-ms=abc", "--poll-ms=-1"}) {
    Capture out("feed_strict_out"), err("feed_strict_err");
    EXPECT_EQ(RunCli({"feed", "--log=/tmp/x.jsonl", port, bad}, &out, &err),
              kExitUsage)
        << bad << ": " << err.text();
  }
}

TEST(CliTest, FleetBindFailureExitsOneAndDrains) {
  auto occupied = TcpListener::Bind("127.0.0.1", 0);
  ASSERT_TRUE(occupied.ok()) << occupied.status();
  const std::string root = TempPath("fleetbind_repo");
  std::filesystem::create_directories(root);
  Capture out("fl_bind_out"), err("fl_bind_err");
  EXPECT_EQ(RunCli({"fleet", "--root=" + root,
                 "--port=" + std::to_string(occupied->port())},
                &out, &err),
            kExitFatal);
  EXPECT_NE(err.text().find("granula fleet:"), std::string::npos);
}

TEST(CliTest, ServeBindFailureExitsOne) {
  // Occupy a port first; `granula serve` on the same port must report the
  // bind failure and exit 1 instead of looping or crashing.
  auto occupied = TcpListener::Bind("127.0.0.1", 0);
  ASSERT_TRUE(occupied.ok()) << occupied.status();
  // An existing empty directory is a valid (empty) repository, so the
  // failure below can only come from the bind.
  const std::string root = FreshRepoDir("servebind_repo");
  std::filesystem::create_directories(root);
  Capture out("sv_bind_out"), err("sv_bind_err");
  EXPECT_EQ(RunCli({"serve", "--root=" + root,
                 "--port=" + std::to_string(occupied->port())},
                &out, &err),
            kExitFatal);
  EXPECT_NE(err.text().find("granula serve:"), std::string::npos);
}

}  // namespace
}  // namespace granula::cli
