#include "granula/archive/archiver.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/random.h"
#include "granula/models/models.h"

namespace granula::core {
namespace {

// A miniature platform run, logged at two levels of detail:
// Root(0-10s) -> PhaseA(0-6s) -> Step x2 (workers), PhaseB(6-10s).
std::vector<LogRecord> SampleLog() {
  SimTime now;
  JobLogger logger([&now] { return now; });
  OpId root = logger.StartOperation(kNoOp, "Job", "job-0", "Root");
  OpId phase_a =
      logger.StartOperation(root, "Job", "job-0", "PhaseA", "PhaseA");
  OpId step1 =
      logger.StartOperation(phase_a, "Worker", "Worker-1", "Step", "Step-1");
  logger.AddInfo(step1, "Items", Json(int64_t{100}));
  now = SimTime::Seconds(4);
  logger.EndOperation(step1);
  OpId step2 =
      logger.StartOperation(phase_a, "Worker", "Worker-2", "Step", "Step-2");
  now = SimTime::Seconds(6);
  logger.EndOperation(step2);
  logger.EndOperation(phase_a);
  OpId phase_b =
      logger.StartOperation(root, "Job", "job-0", "PhaseB", "PhaseB");
  now = SimTime::Seconds(10);
  logger.EndOperation(phase_b);
  logger.EndOperation(root);
  return logger.TakeRecords();
}

PerformanceModel SampleModel() {
  PerformanceModel model("sample");
  (void)model.AddRoot("Job", "Root");
  (void)model.AddOperation("Job", "PhaseA", "Job", "Root");
  (void)model.AddOperation("Job", "PhaseB", "Job", "Root");
  (void)model.AddOperation("Worker", "Step", "Job", "PhaseA");
  return model;
}

TEST(ArchiverTest, BuildsTreeWithTimesAndInfos) {
  auto archive = Archiver().Build(SampleModel(), SampleLog(), {},
                                  {{"platform", "test"}});
  ASSERT_TRUE(archive.ok()) << archive.status();
  ASSERT_NE(archive->root, nullptr);
  EXPECT_EQ(archive->root->mission_type, "Root");
  EXPECT_EQ(archive->root->Duration(), SimTime::Seconds(10));
  ASSERT_EQ(archive->root->children.size(), 2u);
  const ArchivedOperation& phase_a = *archive->root->children[0];
  EXPECT_EQ(phase_a.mission_type, "PhaseA");
  ASSERT_EQ(phase_a.children.size(), 2u);
  EXPECT_EQ(phase_a.children[0]->actor_id, "Worker-1");
  EXPECT_DOUBLE_EQ(phase_a.children[0]->InfoNumber("Items"), 100.0);
  EXPECT_EQ(archive->job_metadata.at("platform"), "test");
  EXPECT_EQ(archive->OperationCount(), 5u);
}

TEST(ArchiverTest, DurationRuleDerived) {
  auto archive = Archiver().Build(SampleModel(), SampleLog(), {}, {});
  ASSERT_TRUE(archive.ok());
  const ArchivedOperation* step =
      archive->FindByPath("Root/PhaseA/Step-1");
  ASSERT_NE(step, nullptr);
  EXPECT_DOUBLE_EQ(step->InfoNumber("Duration"),
                   SimTime::Seconds(4).nanos());
  EXPECT_EQ(step->FindInfo("Duration")->source, "EndTime - StartTime");
}

TEST(ArchiverTest, OrderIndependent) {
  std::vector<LogRecord> records = SampleLog();
  Rng rng(5);
  rng.Shuffle(records);
  auto shuffled = Archiver().Build(SampleModel(), records, {}, {});
  auto ordered = Archiver().Build(SampleModel(), SampleLog(), {}, {});
  ASSERT_TRUE(shuffled.ok()) << shuffled.status();
  ASSERT_TRUE(ordered.ok());
  EXPECT_EQ(shuffled->ToJsonString(), ordered->ToJsonString());
}

TEST(ArchiverTest, UnmodeledOperationsSplicedOut) {
  // Model without the Worker@Step level: steps vanish, but PhaseA keeps
  // its own timing.
  PerformanceModel coarse("coarse");
  (void)coarse.AddRoot("Job", "Root");
  (void)coarse.AddOperation("Job", "PhaseA", "Job", "Root");
  (void)coarse.AddOperation("Job", "PhaseB", "Job", "Root");
  auto archive = Archiver().Build(coarse, SampleLog(), {}, {});
  ASSERT_TRUE(archive.ok());
  EXPECT_EQ(archive->OperationCount(), 3u);
  const ArchivedOperation* phase_a = archive->FindByPath("Root/PhaseA");
  ASSERT_NE(phase_a, nullptr);
  EXPECT_TRUE(phase_a->children.empty());
  EXPECT_EQ(phase_a->Duration(), SimTime::Seconds(6));
}

TEST(ArchiverTest, UnmodeledMiddleHoistsGrandchildren) {
  // Model with Root and Step but not PhaseA/PhaseB: steps re-attach to Root.
  PerformanceModel holey("holey");
  (void)holey.AddRoot("Job", "Root");
  (void)holey.AddOperation("Worker", "Step", "Job", "Root");
  auto archive = Archiver().Build(holey, SampleLog(), {}, {});
  ASSERT_TRUE(archive.ok());
  ASSERT_EQ(archive->root->children.size(), 2u);
  EXPECT_EQ(archive->root->children[0]->mission_type, "Step");
}

TEST(ArchiverTest, MaxLevelOptionTrimsArchive) {
  Archiver::Options options;
  options.max_level = 2;
  auto archive =
      Archiver(options).Build(SampleModel(), SampleLog(), {}, {});
  ASSERT_TRUE(archive.ok());
  EXPECT_EQ(archive->OperationCount(), 3u);  // root + 2 phases
}

TEST(ArchiverTest, StrictModeRejectsUnmodeledOps) {
  PerformanceModel coarse("coarse");
  (void)coarse.AddRoot("Job", "Root");
  (void)coarse.AddOperation("Job", "PhaseA", "Job", "Root");
  (void)coarse.AddOperation("Job", "PhaseB", "Job", "Root");
  Archiver::Options options;
  options.strict = true;
  auto archive = Archiver(options).Build(coarse, SampleLog(), {}, {});
  EXPECT_EQ(archive.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ArchiverTest, MissingEndRepairedFromSubtree) {
  std::vector<LogRecord> records = SampleLog();
  // Drop PhaseA's EndOp record.
  records.erase(std::remove_if(records.begin(), records.end(),
                               [](const LogRecord& r) {
                                 return r.kind == LogRecord::Kind::kEndOp &&
                                        r.op_id == 2;
                               }),
                records.end());
  auto archive = Archiver().Build(SampleModel(), records, {}, {});
  ASSERT_TRUE(archive.ok()) << archive.status();
  const ArchivedOperation* phase_a = archive->FindByPath("Root/PhaseA");
  ASSERT_NE(phase_a, nullptr);
  // Repaired to the max end of its steps (6s).
  EXPECT_EQ(phase_a->EndTime(), SimTime::Seconds(6));
  EXPECT_NE(phase_a->FindInfo("EndTime")->source.find("repaired"),
            std::string::npos);
}

TEST(ArchiverTest, NoRootFails) {
  std::vector<LogRecord> records;
  auto archive = Archiver().Build(SampleModel(), records, {}, {});
  EXPECT_EQ(archive.status().code(), StatusCode::kCorruption);
}

TEST(ArchiverTest, TwoRootsFail) {
  SimTime now;
  JobLogger logger([&now] { return now; });
  logger.StartOperation(kNoOp, "Job", "", "Root");
  logger.StartOperation(kNoOp, "Job", "", "Root");
  auto archive = Archiver().Build(SampleModel(), logger.records(), {}, {});
  EXPECT_EQ(archive.status().code(), StatusCode::kCorruption);
}

TEST(ArchiverTest, DuplicateStartFails) {
  std::vector<LogRecord> records = SampleLog();
  records.push_back(records[0]);
  auto archive = Archiver().Build(SampleModel(), records, {}, {});
  EXPECT_EQ(archive.status().code(), StatusCode::kCorruption);
}

TEST(ArchiverTest, OrphanInfoRejectedStrictQuarantinedInRepair) {
  std::vector<LogRecord> records = SampleLog();
  LogRecord orphan;
  orphan.kind = LogRecord::Kind::kInfo;
  orphan.seq = 999;
  orphan.op_id = 999;
  orphan.info_name = "ghost";
  orphan.info_value = Json(int64_t{1});
  records.push_back(orphan);
  auto strict = Archiver().Build(SampleModel(), records, {}, {});
  EXPECT_EQ(strict.status().code(), StatusCode::kCorruption);

  Archiver::Options options;
  options.tolerance = Archiver::Tolerance::kRepair;
  auto repaired = Archiver(options).Build(SampleModel(), records, {}, {});
  ASSERT_TRUE(repaired.ok()) << repaired.status();
  EXPECT_EQ(repaired->lint.CountOf(LintDefect::kOrphanInfo), 1u);
  EXPECT_EQ(repaired->OperationCount(), 5u);
}

TEST(ArchiverTest, RootNotInModelFails) {
  PerformanceModel other("other");
  (void)other.AddRoot("Job", "SomethingElse");
  auto archive = Archiver().Build(other, SampleLog(), {}, {});
  EXPECT_FALSE(archive.ok());
}

TEST(ArchiverTest, ChildrenSortedByStartTime) {
  // Emit children out of time order (possible with distributed workers).
  SimTime now;
  JobLogger logger([&now] { return now; });
  OpId root = logger.StartOperation(kNoOp, "Job", "", "Root");
  now = SimTime::Seconds(5);
  OpId late =
      logger.StartOperation(root, "Job", "", "PhaseB", "PhaseB");
  logger.EndOperation(late);
  now = SimTime::Seconds(1);
  OpId early =
      logger.StartOperation(root, "Job", "", "PhaseA", "PhaseA");
  logger.EndOperation(early);
  now = SimTime::Seconds(6);
  logger.EndOperation(root);
  auto archive = Archiver().Build(SampleModel(), logger.records(), {}, {});
  ASSERT_TRUE(archive.ok());
  ASSERT_EQ(archive->root->children.size(), 2u);
  EXPECT_EQ(archive->root->children[0]->mission_type, "PhaseA");
  EXPECT_EQ(archive->root->children[1]->mission_type, "PhaseB");
}

TEST(ArchiverTest, EnvironmentAndMetadataCarried) {
  EnvironmentRecord env;
  env.node = 3;
  env.hostname = "node342";
  env.time_seconds = 1.0;
  env.cpu_seconds_per_second = 7.5;
  auto archive = Archiver().Build(SampleModel(), SampleLog(), {env},
                                  {{"algorithm", "BFS"}});
  ASSERT_TRUE(archive.ok());
  ASSERT_EQ(archive->environment.size(), 1u);
  EXPECT_EQ(archive->environment[0].hostname, "node342");
  EXPECT_EQ(archive->job_metadata.at("algorithm"), "BFS");
}

// ----------------------------------------------------- depth limit ------

// A log whose operations nest `levels` deep: Root -> Step -> Step -> ...,
// every StartOp first, then the EndOps deepest first.
std::vector<LogRecord> ChainLog(int levels) {
  SimTime now;
  JobLogger logger([&now] { return now; });
  std::vector<OpId> chain = {
      logger.StartOperation(kNoOp, "Job", "job-0", "Root")};
  for (int level = 2; level <= levels; ++level) {
    now += SimTime::Seconds(1);
    chain.push_back(
        logger.StartOperation(chain.back(), "Worker", "w", "Step", "Step"));
  }
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    now += SimTime::Seconds(1);
    logger.EndOperation(*it);
  }
  return logger.TakeRecords();
}

PerformanceModel ChainModel() {
  PerformanceModel model("chain");
  (void)model.AddRoot("Job", "Root");
  (void)model.AddOperation("Worker", "Step", "Job", "Root");
  return model;
}

int Depth(const ArchivedOperation* op) {
  int depth = 0;
  for (; op != nullptr;
       op = op->children.empty() ? nullptr : op->children[0].get()) {
    ++depth;
  }
  return depth;
}

TEST(ArchiverDepthTest, ChainAtTheLimitBuildsAndRoundTripsThroughJson) {
  for (auto tolerance :
       {Archiver::Tolerance::kStrict, Archiver::Tolerance::kRepair}) {
    Archiver::Options options;
    options.tolerance = tolerance;
    auto archive = Archiver(options).Build(
        ChainModel(), ChainLog(kMaxOperationDepth), {}, {});
    ASSERT_TRUE(archive.ok()) << archive.status();
    EXPECT_EQ(Depth(archive->root.get()), kMaxOperationDepth);
    const std::string json = archive->ToJsonString();
    auto parsed = PerformanceArchive::FromJsonString(json);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(parsed->ToJsonString(), json);
  }
}

TEST(ArchiverDepthTest, OneLevelDeeperIsRejectedInBothToleranceModes) {
  for (auto tolerance :
       {Archiver::Tolerance::kStrict, Archiver::Tolerance::kRepair}) {
    Archiver::Options options;
    options.tolerance = tolerance;
    auto archive = Archiver(options).Build(
        ChainModel(), ChainLog(kMaxOperationDepth + 1), {}, {});
    ASSERT_FALSE(archive.ok());
    EXPECT_EQ(archive.status().code(), StatusCode::kCorruption)
        << archive.status();
  }
}

}  // namespace
}  // namespace granula::core
