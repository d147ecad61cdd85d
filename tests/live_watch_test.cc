// End-to-end live monitoring: a platform job streams its log to disk via
// JobLogger::StreamTo while `WatchLog` tails the same file from another
// thread, assembling the archive online and raising in-flight alerts.
// The acceptance bar from the issue: at least one alert must surface
// before the job completes, and the final watched archive must be
// byte-identical to the batch archive built from the same records.

#include "granula/live/watch.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "granula/archive/archiver.h"
#include "granula/live/alerts.h"
#include "granula/models/models.h"
#include "graph/generators.h"
#include "platforms/powergraph.h"

namespace granula::core {
namespace {

using platform::JobConfig;
using platform::JobResult;

std::string FreshPath(const std::string& name) {
  std::string path = testing::TempDir() + "/watch_" + name + ".jsonl";
  std::error_code ec;
  std::filesystem::remove(path, ec);
  return path;
}

graph::Graph TestGraph() {
  graph::DatagenConfig config;
  config.num_vertices = 2000;
  config.avg_degree = 8.0;
  config.seed = 7;
  auto g = graph::GenerateDatagen(config);
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

Result<JobResult> RunPowerGraph(const std::string& live_log,
                                uint64_t delay_us) {
  graph::Graph graph = TestGraph();
  algo::AlgorithmSpec spec;
  spec.id = algo::AlgorithmId::kBfs;
  spec.source = 1;
  cluster::ClusterConfig cluster;
  JobConfig job;
  job.live_log_path = live_log;
  job.live_log_delay_us = delay_us;
  return platform::PowerGraphPlatform().Run(graph, spec, cluster, job);
}

// Alert-friendly thresholds: real runs have a clearly dominant phase, so
// lowering the fraction makes at least one detector fire early.
ChokepointOptions EagerChokepoints() {
  ChokepointOptions options;
  options.dominant_phase_fraction = 0.20;
  options.min_phase_fraction = 0.01;
  return options;
}

TEST(LiveWatchTest, TailsAConcurrentRunAndAlertsInFlight) {
  std::string log = FreshPath("concurrent");
  // Pace the producer so the job is genuinely in flight while we tail:
  // each record's write sleeps a little wall-clock time (virtual time is
  // untouched), stretching the run over many watch polls.
  Result<JobResult> result = Status::Internal("producer never ran");
  std::thread producer([&] { result = RunPowerGraph(log, 50); });

  WatchOptions options;
  options.log_path = log;
  options.fleet.poll_interval_ms = 5;
  options.timeout_s = 120;
  options.quiet = true;
  options.fleet.chokepoints = EagerChokepoints();
  Result<WatchSummary> watched =
      WatchLog(MakePowerGraphModel(), options, nullptr);
  producer.join();

  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(watched.ok()) << watched.status();
  const WatchSummary& summary = watched.value();
  EXPECT_TRUE(summary.completed);
  EXPECT_EQ(summary.records_ingested, result.value().records.size());
  EXPECT_EQ(summary.malformed_lines, 0u);
  EXPECT_GE(summary.alerts, 1u);
  // The point of live monitoring: the first diagnosis arrives while the
  // job is still running, not after the fact.
  EXPECT_GE(summary.in_flight_alerts, 1u);
  EXPECT_GT(summary.snapshots, 1u);

  // The watched archive is byte-identical to the batch pipeline's output
  // over the same records (no metadata/environment on either side).
  auto batch = Archiver().Build(MakePowerGraphModel(),
                                result.value().records, {}, {});
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_EQ(summary.archive.ToJsonString(2), batch.value().ToJsonString(2));
}

TEST(LiveWatchTest, CompletedLogIsWatchableAfterTheFact) {
  // Watching a log that is already complete degenerates to batch mode:
  // one poll drains it, the archiver finalizes, and we exit immediately.
  std::string log = FreshPath("replay");
  Result<JobResult> result = RunPowerGraph(log, 0);
  ASSERT_TRUE(result.ok()) << result.status();

  WatchOptions options;
  options.log_path = log;
  options.fleet.poll_interval_ms = 5;
  options.timeout_s = 10;
  options.quiet = true;
  Result<WatchSummary> watched =
      WatchLog(MakePowerGraphModel(), options, nullptr);
  ASSERT_TRUE(watched.ok()) << watched.status();
  EXPECT_TRUE(watched.value().completed);
  EXPECT_EQ(watched.value().records_ingested,
            result.value().records.size());
  EXPECT_EQ(watched.value().archiver_stats.quarantined_records, 0u);
}

TEST(LiveWatchTest, TimesOutWhenTheJobNeverFinishes) {
  std::string log = FreshPath("stalled");
  // One lonely StartOp: the job hangs and nothing else ever arrives.
  LogRecord r;
  r.kind = LogRecord::Kind::kStartOp;
  r.seq = 0;
  r.op_id = 1;
  r.actor_type = "Job";
  r.actor_id = "job";
  r.mission_type = "GraphProcessingJob";
  r.mission_id = "PowerGraphJob";
  std::ofstream(log) << r.ToJson().Dump(0) << "\n";

  WatchOptions options;
  options.log_path = log;
  options.fleet.poll_interval_ms = 0;
  options.timeout_s = 5;
  options.quiet = true;
  // Fake clock: every reading advances one virtual second, so the
  // deadline passes after a handful of polls with no real sleeping.
  double fake_now = 0;
  options.fleet.now = [&fake_now] { return fake_now += 1.0; };
  Result<WatchSummary> watched =
      WatchLog(MakePowerGraphModel(), options, nullptr);
  ASSERT_TRUE(watched.ok()) << watched.status();
  EXPECT_FALSE(watched.value().completed);
  EXPECT_EQ(watched.value().records_ingested, 1u);
  // The last watermark snapshot still ships: the stalled operation is
  // visible, marked in flight.
  ASSERT_NE(watched.value().archive.root, nullptr);
  EXPECT_TRUE(watched.value().archive.root->HasInfo("InFlight"));
}

TEST(LiveWatchTest, StallDetectorFiresOnTheFakeClock) {
  std::string log = FreshPath("stall_alert");
  LogRecord r;
  r.kind = LogRecord::Kind::kStartOp;
  r.seq = 0;
  r.op_id = 1;
  r.actor_type = "Job";
  r.actor_id = "job";
  r.mission_type = "GraphProcessingJob";
  r.mission_id = "PowerGraphJob";
  std::ofstream(log) << r.ToJson().Dump(0) << "\n";

  WatchOptions options;
  options.log_path = log;
  options.fleet.poll_interval_ms = 0;
  options.timeout_s = 100;
  options.fleet.stall_timeout_s = 10;
  options.quiet = true;
  double fake_now = 0;
  options.fleet.now = [&fake_now] { return fake_now += 1.0; };
  Result<WatchSummary> watched =
      WatchLog(MakePowerGraphModel(), options, nullptr);
  ASSERT_TRUE(watched.ok()) << watched.status();
  EXPECT_FALSE(watched.value().completed);
  // The stall fired once (and only once), well before the deadline, and
  // counts as an in-flight alert — all on virtual time.
  EXPECT_EQ(watched.value().stall_alerts, 1u);
  EXPECT_GE(watched.value().alerts, 1u);
  EXPECT_GE(watched.value().in_flight_alerts, 1u);
}

TEST(AlertTrackerTest, DeduplicatesAcrossSnapshots) {
  Result<JobResult> result = RunPowerGraph("", 0);
  ASSERT_TRUE(result.ok()) << result.status();
  auto archive = Archiver().Build(MakePowerGraphModel(),
                                  result.value().records, {}, {});
  ASSERT_TRUE(archive.ok()) << archive.status();

  AlertTracker tracker(EagerChokepoints());
  std::vector<LiveAlert> first = tracker.Update(archive.value());
  ASSERT_GE(first.size(), 1u);
  // The finished archive carries no InFlight marker.
  EXPECT_FALSE(first[0].in_flight);
  // Same archive again: every finding was already reported.
  EXPECT_TRUE(tracker.Update(archive.value()).empty());
  EXPECT_EQ(tracker.alerts().size(), first.size());
  EXPECT_EQ(tracker.snapshots_analyzed(), 2u);
}

}  // namespace
}  // namespace granula::core
