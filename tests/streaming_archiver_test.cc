// StreamingArchiver: online assembly must match the batch Archiver
// byte-for-byte on clean logs, stay valid at every stream prefix, keep
// memory bounded by the open-operation table, and survive dirty streams
// with the same defect classes the batch lint pass reports.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "granula/archive/archiver.h"
#include "granula/live/streaming_archiver.h"
#include "granula/models/models.h"
#include "graph/generators.h"
#include "platforms/giraph.h"
#include "platforms/graphmat.h"
#include "platforms/hadoop.h"
#include "platforms/pgxd.h"
#include "platforms/powergraph.h"

namespace granula::core {
namespace {

using platform::JobConfig;
using platform::JobResult;

// ----------------------------------------------------- platform runs ----

graph::Graph TestGraph() {
  graph::DatagenConfig config;
  config.num_vertices = 3000;
  config.avg_degree = 8.0;
  config.seed = 99;
  auto g = graph::GenerateDatagen(config);
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

algo::AlgorithmSpec SpecFor(algo::AlgorithmId id) {
  algo::AlgorithmSpec spec;
  spec.id = id;
  spec.source = 1;
  spec.max_iterations = 4;
  return spec;
}

JobResult RunPlatform(const std::string& name, algo::AlgorithmId id) {
  graph::Graph graph = TestGraph();
  algo::AlgorithmSpec spec = SpecFor(id);
  cluster::ClusterConfig cluster;
  JobConfig job;
  Result<JobResult> result = Status::Internal("unset");
  if (name == "giraph") {
    result = platform::GiraphPlatform().Run(graph, spec, cluster, job);
  } else if (name == "powergraph") {
    result = platform::PowerGraphPlatform().Run(graph, spec, cluster, job);
  } else if (name == "hadoop") {
    result = platform::HadoopPlatform().Run(graph, spec, cluster, job);
  } else if (name == "pgxd") {
    result = platform::PgxdPlatform().Run(graph, spec, cluster, job);
  } else {
    result = platform::GraphMatPlatform().Run(graph, spec, cluster, job);
  }
  EXPECT_TRUE(result.ok()) << name << ": " << result.status();
  return std::move(result).value();
}

PerformanceModel ModelFor(const std::string& name) {
  if (name == "giraph") return MakeGiraphModel();
  if (name == "powergraph") return MakePowerGraphModel();
  if (name == "hadoop") return MakeHadoopModel();
  if (name == "pgxd") return MakePgxdModel();
  return MakeGraphMatModel();
}

// ------------------------------------------------- synthetic streams ----

LogRecord Start(uint64_t seq, double t, uint64_t op, uint64_t parent,
                std::string actor_type, std::string mission_type,
                std::string mission_id = "") {
  LogRecord r;
  r.kind = LogRecord::Kind::kStartOp;
  r.seq = seq;
  r.time = SimTime::Seconds(t);
  r.op_id = op;
  r.parent_id = parent;
  r.actor_type = std::move(actor_type);
  r.mission_type = std::move(mission_type);
  r.mission_id = std::move(mission_id);
  return r;
}

LogRecord End(uint64_t seq, double t, uint64_t op) {
  LogRecord r;
  r.kind = LogRecord::Kind::kEndOp;
  r.seq = seq;
  r.time = SimTime::Seconds(t);
  r.op_id = op;
  return r;
}

LogRecord Info(uint64_t seq, double t, uint64_t op, std::string name,
               Json value) {
  LogRecord r;
  r.kind = LogRecord::Kind::kInfo;
  r.seq = seq;
  r.time = SimTime::Seconds(t);
  r.op_id = op;
  r.info_name = std::move(name);
  r.info_value = std::move(value);
  return r;
}

std::string BatchJson(const PerformanceModel& model,
                      const std::vector<LogRecord>& records) {
  // Repair tolerance: the streaming archiver always repairs (strict mode
  // would defeat live monitoring), so the batch reference must too.
  Archiver::Options options;
  options.tolerance = Archiver::Tolerance::kRepair;
  auto archive = Archiver(options).Build(model, records, {}, {});
  EXPECT_TRUE(archive.ok()) << archive.status();
  if (!archive.ok()) return "<batch failed>";
  return archive->ToJsonString();
}

std::string StreamedJson(const PerformanceModel& model,
                         const std::vector<LogRecord>& records) {
  StreamingArchiver streaming(model);
  streaming.AppendAll(records);
  streaming.Finish();
  auto snapshot = streaming.Snapshot();
  EXPECT_TRUE(snapshot.ok()) << snapshot.status();
  return snapshot->ToJsonString();
}

// ----------------------------------------------- batch equivalence ------

TEST(StreamingEquivalenceTest, MatchesBatchOnEveryPlatformAndAlgorithm) {
  const std::string platforms[] = {"giraph", "powergraph", "hadoop", "pgxd",
                                   "graphmat"};
  const algo::AlgorithmId algorithms[] = {algo::AlgorithmId::kBfs,
                                          algo::AlgorithmId::kPageRank};
  for (const std::string& platform_name : platforms) {
    for (algo::AlgorithmId algorithm : algorithms) {
      SCOPED_TRACE(platform_name +
                   (algorithm == algo::AlgorithmId::kBfs ? "/BFS"
                                                         : "/PageRank"));
      JobResult result = RunPlatform(platform_name, algorithm);
      PerformanceModel model = ModelFor(platform_name);
      std::map<std::string, std::string> metadata = {
          {"platform", platform_name}};

      auto env_copy = result.environment;
      auto batch = Archiver().Build(model, result.records,
                                    std::move(env_copy), metadata);
      ASSERT_TRUE(batch.ok()) << batch.status();

      StreamingArchiver streaming(model);
      streaming.SetJobMetadata(metadata);
      streaming.SetEnvironment(result.environment);
      streaming.AppendAll(result.records);
      streaming.Finish();
      auto snapshot = streaming.Snapshot();
      ASSERT_TRUE(snapshot.ok()) << snapshot.status();

      EXPECT_TRUE(streaming.complete());
      EXPECT_EQ(streaming.stats().quarantined_records, 0u);
      EXPECT_EQ(batch->ToJsonString(), snapshot->ToJsonString());
    }
  }
}

TEST(StreamingEquivalenceTest, MatchesBatchWithModelLevelTruncation) {
  JobResult result = RunPlatform("giraph", algo::AlgorithmId::kBfs);
  PerformanceModel model = MakeGiraphModel();

  Archiver::Options batch_options;
  batch_options.max_level = 2;
  auto batch = Archiver(batch_options).Build(model, result.records, {}, {});
  ASSERT_TRUE(batch.ok()) << batch.status();

  StreamingArchiver::Options streaming_options;
  streaming_options.max_level = 2;
  StreamingArchiver streaming(model, streaming_options);
  streaming.AppendAll(result.records);
  streaming.Finish();
  auto snapshot = streaming.Snapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  EXPECT_EQ(batch->ToJsonString(), snapshot->ToJsonString());
}

// --------------------------------------------- prefix snapshot validity --

TEST(StreamingSnapshotTest, EveryTestedPrefixYieldsAValidArchive) {
  JobResult result = RunPlatform("giraph", algo::AlgorithmId::kBfs);
  PerformanceModel model = MakeGiraphModel();
  StreamingArchiver streaming(model);

  const size_t n = result.records.size();
  ASSERT_GT(n, 100u);
  const size_t step = n / 23 + 1;
  size_t valid_snapshots = 0;
  for (size_t i = 0; i < n; ++i) {
    streaming.Append(result.records[i]);
    if (i % step != 0 && i + 1 != n) continue;
    auto snapshot = streaming.Snapshot();
    if (!snapshot.ok()) {
      // Only legitimate before any root StartOp has arrived.
      EXPECT_EQ(streaming.stats().records_ingested, 0u) << snapshot.status();
      continue;
    }
    ++valid_snapshots;
    ASSERT_NE(snapshot->root, nullptr);
    // Well-formed interval on every operation, in flight or not.
    snapshot->root->Visit([](const ArchivedOperation& op) {
      EXPECT_TRUE(op.HasInfo("StartTime"));
      EXPECT_TRUE(op.HasInfo("EndTime"));
      EXPECT_LE(op.StartTime(), op.EndTime());
    });
    // The snapshot is a real PerformanceArchive: it round-trips.
    std::string json = snapshot->ToJsonString();
    auto reparsed = PerformanceArchive::FromJsonString(json);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status();
    EXPECT_EQ(json, reparsed->ToJsonString());
    // In-flight marker present exactly while the job is still open.
    if (i + 1 < n) {
      EXPECT_TRUE(snapshot->root->HasInfo("InFlight"));
    }
  }
  EXPECT_GE(valid_snapshots, 20u);

  streaming.Finish();
  auto final_snapshot = streaming.Snapshot();
  ASSERT_TRUE(final_snapshot.ok());
  EXPECT_FALSE(final_snapshot->root->HasInfo("InFlight"));
}

TEST(StreamingSnapshotTest, InFlightOperationsCloseAtTheWatermark) {
  PerformanceModel model = MakeGiraphModel();
  StreamingArchiver streaming(model);
  streaming.Append(Start(0, 0.0, 1, kNoOp, ops::kJobActor, ops::kJobMission,
                         "GiraphJob"));
  streaming.Append(Start(1, 1.0, 2, 1, ops::kJobActor, ops::kLoadGraph));
  streaming.Append(Info(2, 2.0, 2, "BytesRead", Json(int64_t{42})));

  auto snapshot = streaming.Snapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  const ArchivedOperation& root = *snapshot->root;
  EXPECT_TRUE(root.HasInfo("InFlight"));
  EXPECT_EQ(root.EndTime(), SimTime::Seconds(2.0));  // watermark
  ASSERT_EQ(root.children.size(), 1u);
  EXPECT_TRUE(root.children[0]->HasInfo("InFlight"));
  EXPECT_EQ(root.children[0]->InfoNumber("BytesRead"), 42.0);

  // Once the child ends, its snapshot form is final: real end, no marker.
  streaming.Append(End(3, 3.0, 2));
  snapshot = streaming.Snapshot();
  ASSERT_TRUE(snapshot.ok());
  ASSERT_EQ(snapshot->root->children.size(), 1u);
  const ArchivedOperation& child = *snapshot->root->children[0];
  EXPECT_FALSE(child.HasInfo("InFlight"));
  EXPECT_EQ(child.EndTime(), SimTime::Seconds(3.0));
  EXPECT_TRUE(snapshot->root->HasInfo("InFlight"));
}

TEST(StreamingSnapshotTest, SnapshotIsUnchangedByLaterRecordsAndFinish) {
  // A mid-stream snapshot shares the archiver's finalized subtrees rather
  // than copying them; the records that follow, the finalizations they
  // cascade into and Finish() must not change a byte of it.
  JobResult result = RunPlatform("giraph", algo::AlgorithmId::kBfs);
  StreamingArchiver streaming(MakeGiraphModel());
  const size_t half = result.records.size() / 2;
  for (size_t i = 0; i < half; ++i) streaming.Append(result.records[i]);
  ASSERT_GT(streaming.stats().finalized_operations, 0u);
  auto snapshot = streaming.Snapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  const std::string before = snapshot->ToJsonString();

  for (size_t i = half; i < result.records.size(); ++i) {
    streaming.Append(result.records[i]);
  }
  streaming.Finish();
  auto final_snapshot = streaming.Snapshot();
  ASSERT_TRUE(final_snapshot.ok()) << final_snapshot.status();
  EXPECT_EQ(snapshot->ToJsonString(), before);
  EXPECT_NE(final_snapshot->ToJsonString(), before);

  // The two archives share the subtrees finalized before the first one.
  std::set<const ArchivedOperation*> final_nodes;
  final_snapshot->root->Visit(
      [&](const ArchivedOperation& op) { final_nodes.insert(&op); });
  size_t shared = 0;
  snapshot->root->Visit([&](const ArchivedOperation& op) {
    shared += final_nodes.count(&op);
  });
  EXPECT_GT(shared, 0u);
}

TEST(StreamingSnapshotTest, EmptyStreamHasNoRoot) {
  StreamingArchiver streaming(MakeGiraphModel());
  EXPECT_FALSE(streaming.Snapshot().ok());
  streaming.Finish();
  EXPECT_FALSE(streaming.Snapshot().ok());
}

// -------------------------------------------------- bounded memory ------

TEST(StreamingMemoryTest, SequentialOperationsAreEvictedAsTheyClose) {
  PerformanceModel model = MakeGiraphModel();
  StreamingArchiver streaming(model);
  streaming.Append(Start(0, 0.0, 1, kNoOp, ops::kJobActor, ops::kJobMission,
                         "GiraphJob"));
  const uint64_t kChildren = 500;
  uint64_t seq = 1;
  for (uint64_t i = 0; i < kChildren; ++i) {
    const uint64_t op = 2 + i;
    const double t = 1.0 + static_cast<double>(i);
    streaming.Append(Start(seq++, t, op, 1, "Worker", "Chunk"));
    streaming.Append(Info(seq++, t + 0.2, op, "Items", Json(int64_t(i))));
    streaming.Append(End(seq++, t + 0.5, op));
    // The closed child must be evicted immediately: only the root stays.
    EXPECT_EQ(streaming.stats().open_operations, 1u);
  }
  streaming.Append(End(seq++, 1000.0, 1));

  const StreamingArchiver::Stats& stats = streaming.stats();
  EXPECT_EQ(stats.open_operations, 0u);
  EXPECT_EQ(stats.peak_open_operations, 2u);  // root + one child, ever
  EXPECT_EQ(stats.finalized_operations, kChildren + 1);
  EXPECT_EQ(stats.quarantined_records, 0u);
  EXPECT_TRUE(streaming.complete());
}

TEST(StreamingMemoryTest, RealRunPeaksFarBelowLogSize) {
  JobResult result = RunPlatform("powergraph", algo::AlgorithmId::kBfs);
  StreamingArchiver streaming(MakePowerGraphModel());
  streaming.AppendAll(result.records);
  streaming.Finish();
  const StreamingArchiver::Stats& stats = streaming.stats();
  EXPECT_EQ(stats.records_ingested, result.records.size());
  EXPECT_GT(stats.finalized_operations, 100u);
  // The open table never held more than a sliver of the operations.
  EXPECT_LT(stats.peak_open_operations, stats.finalized_operations / 4);
}

// ------------------------------------------------------ dirty streams ---

TEST(StreamingLintTest, MatchesBatchOnRepairableDefects) {
  PerformanceModel model = MakeGiraphModel();
  // In-order stream with one of each in-place-repairable defect:
  // duplicate start, duplicate end, inverted end, orphan end, orphan
  // info, missing end (op 4 never ends). Op 3 — an unmodeled child that
  // outlives op 2's first EndOp — keeps op 2 in the open table, so the
  // duplicate EndOp at seq 6 is classified exactly as batch lint does
  // (an op that closed AND finalized would make it an orphan instead;
  // that divergence is documented on the class).
  std::vector<LogRecord> records;
  records.push_back(Start(0, 0.0, 1, kNoOp, ops::kJobActor, ops::kJobMission,
                          "GiraphJob"));
  records.push_back(Start(1, 1.0, 2, 1, ops::kJobActor, ops::kLoadGraph));
  records.push_back(Start(2, 1.5, 2, 1, ops::kJobActor, ops::kLoadGraph));
  records.push_back(End(3, 0.5, 2));  // inverted: precedes its start
  records.push_back(Start(4, 1.2, 3, 2, "Worker", "LoadPartition"));
  records.push_back(End(5, 2.0, 2));
  records.push_back(End(6, 2.5, 2));  // duplicate: first valid end wins
  records.push_back(End(7, 1.8, 3));
  records.push_back(End(8, 3.0, 77));              // orphan end
  records.push_back(Info(9, 3.0, 88, "X", Json(int64_t{1})));  // orphan info
  records.push_back(Start(10, 4.0, 4, 1, ops::kJobActor, ops::kProcessGraph));
  records.push_back(End(11, 9.0, 1));  // root ends; op 4 never does

  EXPECT_EQ(BatchJson(model, records), StreamedJson(model, records));

  StreamingArchiver streaming(model);
  streaming.AppendAll(records);
  streaming.Finish();
  LintReport report;
  report.findings = streaming.findings();
  EXPECT_EQ(report.CountOf(LintDefect::kDuplicateStartOp), 1u);
  EXPECT_EQ(report.CountOf(LintDefect::kDuplicateEndOp), 1u);
  EXPECT_EQ(report.CountOf(LintDefect::kEndBeforeStart), 1u);
  EXPECT_EQ(report.CountOf(LintDefect::kOrphanEndOp), 1u);
  EXPECT_EQ(report.CountOf(LintDefect::kOrphanInfo), 1u);
  EXPECT_EQ(report.CountOf(LintDefect::kMissingEndTime), 1u);
  EXPECT_EQ(streaming.stats().quarantined_records, 5u);
}

TEST(StreamingLintTest, ExtraRootIsQuarantinedAtFinish) {
  PerformanceModel model = MakeGiraphModel();
  StreamingArchiver streaming(model);
  streaming.Append(Start(0, 0.0, 1, kNoOp, ops::kJobActor, ops::kJobMission,
                         "GiraphJob"));
  streaming.Append(Start(1, 1.0, 2, 1, ops::kJobActor, ops::kLoadGraph));
  streaming.Append(End(2, 2.0, 2));
  // A second parentless root with a smaller subtree.
  streaming.Append(Start(3, 2.5, 9, kNoOp, "Stray", "Noise"));
  streaming.Append(End(4, 2.6, 9));
  streaming.Append(End(5, 3.0, 1));
  streaming.Finish();

  LintReport report;
  report.findings = streaming.findings();
  EXPECT_EQ(report.CountOf(LintDefect::kMultipleRoots), 1u);
  auto snapshot = streaming.Snapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  EXPECT_EQ(snapshot->root->mission_id, "GiraphJob");
  EXPECT_EQ(snapshot->OperationCount(), 2u);  // stray root not in the tree
}

TEST(StreamingLintTest, SelfParentIsQuarantinedOnArrival) {
  StreamingArchiver streaming(MakeGiraphModel());
  streaming.Append(Start(0, 0.0, 1, kNoOp, ops::kJobActor, ops::kJobMission,
                         "GiraphJob"));
  streaming.Append(Start(1, 1.0, 5, 5, "Loop", "Loop"));
  streaming.Append(End(2, 2.0, 1));
  streaming.Finish();
  LintReport report;
  report.findings = streaming.findings();
  EXPECT_EQ(report.CountOf(LintDefect::kParentCycle), 1u);
  EXPECT_EQ(streaming.stats().quarantined_records, 1u);
  EXPECT_TRUE(streaming.Snapshot().ok());
}

TEST(StreamingLintTest, RecordsAfterFinishAreIgnored) {
  StreamingArchiver streaming(MakeGiraphModel());
  streaming.Append(Start(0, 0.0, 1, kNoOp, ops::kJobActor, ops::kJobMission,
                         "GiraphJob"));
  streaming.Append(End(1, 1.0, 1));
  streaming.Finish();
  streaming.Append(Start(2, 2.0, 7, kNoOp, "Late", "Late"));
  EXPECT_EQ(streaming.stats().records_ingested, 2u);
  auto snapshot = streaming.Snapshot();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->OperationCount(), 1u);
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

TEST(StreamingDepthTest, ChainAtTheLimitMatchesBatch) {
  const std::vector<LogRecord> records = ChainLog(kMaxOperationDepth);
  StreamingArchiver streaming(ChainModel());
  streaming.AppendAll(records);
  streaming.Finish();
  auto snapshot = streaming.Snapshot();
  auto batch = Archiver().Build(ChainModel(), records, {}, {});
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_EQ(snapshot->ToJsonString(), batch->ToJsonString());
}

TEST(StreamingDepthTest, DeeperStreamFailsLikeBatchWithoutWalkingIt) {
  // One level past the limit fails as Build does.
  StreamingArchiver one_deeper(ChainModel());
  one_deeper.AppendAll(ChainLog(kMaxOperationDepth + 1));
  one_deeper.Finish();
  auto snapshot = one_deeper.Snapshot();
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), StatusCode::kCorruption);

  // A long open chain stops being ingested at the limit, so a mid-stream
  // snapshot and Finish() never walk it recursively.
  const int levels = 50'000;
  const std::vector<LogRecord> records = ChainLog(levels);
  StreamingArchiver deep(ChainModel());
  for (int i = 0; i < levels; ++i) deep.Append(records[i]);  // StartOps
  EXPECT_EQ(deep.stats().open_operations,
            static_cast<uint64_t>(kMaxOperationDepth));
  EXPECT_EQ(deep.Snapshot().status().code(), StatusCode::kCorruption);
  deep.Finish();
  EXPECT_EQ(deep.Snapshot().status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace granula::core
