// The pluggable alert-sink layer behind `granula watch`: JSON rendering,
// the terminal and JSONL sinks, external (watch-synthesized) alerts, and
// the end-to-end satellite case — an injected stall must land in the
// JSONL sink with machine-readable fields.

#include "granula/live/alert_sink.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "granula/live/watch.h"
#include "granula/models/models.h"
#include "granula/monitor/job_logger.h"

namespace granula::core {
namespace {

std::string FreshPath(const std::string& name) {
  std::string path = testing::TempDir() + "/sink_" + name + ".jsonl";
  std::error_code ec;
  std::filesystem::remove(path, ec);
  return path;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

LiveAlert StallAlert() {
  LiveAlert alert;
  alert.finding.kind = FindingKind::kStalledJob;
  alert.finding.severity = Severity::kCritical;
  alert.finding.operation = "run.jsonl";
  alert.finding.description = "no new log records for 2.0s";
  alert.finding.metric = 2.0;
  alert.in_flight = true;
  alert.snapshot_index = 3;
  return alert;
}

TEST(AlertSinkTest, AlertToJsonCarriesEveryField) {
  Json j = AlertToJson(StallAlert());
  ASSERT_TRUE(j.is_object());
  EXPECT_EQ(j.GetString("kind"), "stalled_job");
  EXPECT_EQ(j.GetString("severity"), "critical");
  EXPECT_EQ(j.GetString("operation"), "run.jsonl");
  EXPECT_EQ(j.GetString("description"), "no new log records for 2.0s");
  EXPECT_EQ(j.GetDouble("metric"), 2.0);
  EXPECT_EQ(j.GetBool("in_flight"), true);
  EXPECT_EQ(j.GetDouble("snapshot"), 3.0);

  // The rendered line reparses: the sink's output is machine-readable.
  auto reparsed = Json::Parse(j.Dump());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(reparsed->GetString("kind"), "stalled_job");
}

TEST(AlertSinkTest, JsonlSinkAppendsOneLinePerAlert) {
  std::string path = FreshPath("jsonl");
  {
    auto sink = JsonlAlertSink::Open(path);
    ASSERT_TRUE(sink.ok()) << sink.status();
    (*sink)->OnAlert(StallAlert());
    LiveAlert second = StallAlert();
    second.finding.kind = FindingKind::kDominantPhase;
    second.finding.severity = Severity::kWarning;
    (*sink)->OnAlert(second);
    (*sink)->Flush();
  }
  std::istringstream lines(ReadFile(path));
  std::vector<std::string> parsed;
  for (std::string line; std::getline(lines, line);) parsed.push_back(line);
  ASSERT_EQ(parsed.size(), 2u);
  auto first = Json::Parse(parsed[0]);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->GetString("kind"), "stalled_job");
  auto second = Json::Parse(parsed[1]);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->GetString("kind"), "dominant_phase");

  // Reopening appends instead of clobbering the history.
  auto again = JsonlAlertSink::Open(path);
  ASSERT_TRUE(again.ok());
  (*again)->OnAlert(StallAlert());
  (*again)->Flush();
  std::istringstream more(ReadFile(path));
  int count = 0;
  for (std::string line; std::getline(more, line);) ++count;
  EXPECT_EQ(count, 3);
}

TEST(AlertSinkTest, TerminalSinkPrintsTheClassicAlertLine) {
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  TerminalAlertSink sink(tmp);
  sink.OnAlert(StallAlert());
  sink.Flush();
  std::rewind(tmp);
  char buffer[256] = {};
  ASSERT_NE(std::fgets(buffer, sizeof(buffer), tmp), nullptr);
  std::string line(buffer);
  std::fclose(tmp);
  EXPECT_NE(line.find("ALERT [critical] stalled_job"), std::string::npos)
      << line;
  EXPECT_NE(line.find("no new log records"), std::string::npos);
}

TEST(AlertTrackerTest, RaiseExternalDeduplicatesByKindAndOperation) {
  AlertTracker tracker;
  Finding finding{FindingKind::kStalledJob, Severity::kCritical, "log",
                  "stall", 1.0};
  auto first = tracker.RaiseExternal(finding, /*in_flight=*/true);
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->in_flight);
  // Same (kind, operation): already reported.
  EXPECT_FALSE(tracker.RaiseExternal(finding, true).has_value());
  // Different operation: a new alert.
  finding.operation = "other";
  EXPECT_TRUE(tracker.RaiseExternal(finding, true).has_value());
  EXPECT_EQ(tracker.alerts().size(), 2u);
}

// The satellite acceptance case: a stalled live log watched with a stall
// timeout and a JSONL sink must produce a stalled_job alert in the file.
TEST(AlertSinkTest, WatchWritesInjectedStallToTheJsonlSink) {
  std::string log = FreshPath("stalled_log");
  std::string alert_log = FreshPath("stalled_alerts");
  // A root that opens and never closes: the job is wedged from the
  // watcher's point of view.
  SimTime now;
  JobLogger logger([&now] { return now; });
  ASSERT_TRUE(logger.StreamTo(log).ok());
  logger.StartOperation(kNoOp, "Job", "job", "GraphProcessingJob",
                        "PowerGraphJob");
  logger.StopStreaming();

  WatchOptions options;
  options.log_path = log;
  options.fleet.poll_interval_ms = 5;
  options.timeout_s = 2.0;
  options.fleet.stall_timeout_s = 0.1;
  options.alert_jsonl_path = alert_log;
  options.quiet = true;
  Result<WatchSummary> watched =
      WatchLog(MakePowerGraphModel(), options, nullptr);
  ASSERT_TRUE(watched.ok()) << watched.status();
  EXPECT_FALSE(watched->completed);
  EXPECT_GE(watched->stall_alerts, 1u);

  bool saw_stall = false;
  std::istringstream lines(ReadFile(alert_log));
  for (std::string line; std::getline(lines, line);) {
    auto j = Json::Parse(line);
    ASSERT_TRUE(j.ok()) << line;
    if (j->GetString("kind") == "stalled_job") {
      saw_stall = true;
      EXPECT_EQ(j->GetString("severity"), "critical");
      EXPECT_EQ(j->GetBool("in_flight"), true);
      EXPECT_GE(j->GetDouble("metric"), 0.1);
    }
  }
  EXPECT_TRUE(saw_stall) << ReadFile(alert_log);
}

}  // namespace
}  // namespace granula::core
