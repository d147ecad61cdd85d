// Supervisor-level tests for the fleet daemon: push ingest with bounded
// queues and explicit shedding, pull sources, per-job finalization,
// fake-clock stall detection, drain semantics, and the FleetService HTTP
// face (ingest + status routes) over a real socket server.

#include "granula/live/fleet.h"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/socket.h"
#include "granula/archive/archiver.h"
#include "granula/archive/repository.h"
#include "granula/live/alert_sink.h"
#include "granula/live/record_source.h"
#include "granula/models/models.h"
#include "granula/monitor/job_logger.h"
#include "granula/serve/feed.h"
#include "granula/serve/fleet_service.h"
#include "granula/serve/server.h"
#include "graph/generators.h"
#include "http_client.h"
#include "platforms/powergraph.h"

namespace granula::core {
namespace {

using platform::JobConfig;
using serve::TcpRecordSource;

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/fleet_" + name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

std::string FreshPath(const std::string& name) {
  std::string path = testing::TempDir() + "/fleet_" + name + ".jsonl";
  std::remove(path.c_str());
  return path;
}

std::vector<LogRecord> RealJobRecords(uint32_t seed = 13) {
  graph::DatagenConfig config;
  config.num_vertices = 500;
  config.avg_degree = 6.0;
  config.seed = seed;
  auto graph = graph::GenerateDatagen(config);
  EXPECT_TRUE(graph.ok()) << graph.status();
  algo::AlgorithmSpec spec;
  spec.id = algo::AlgorithmId::kBfs;
  spec.source = 1;
  auto result = platform::PowerGraphPlatform().Run(
      *graph, spec, cluster::ClusterConfig{}, JobConfig{});
  EXPECT_TRUE(result.ok()) << result.status();
  return std::move(result).value().records;
}

std::string BatchJson(const std::vector<LogRecord>& records) {
  auto batch = Archiver().Build(MakePowerGraphModel(), records, {}, {});
  EXPECT_TRUE(batch.ok()) << batch.status();
  return batch.ok() ? batch->ToJsonString(2) : "";
}

// Collects every alert a supervisor emits, for assertions.
class CollectingSink : public AlertSink {
 public:
  void OnAlert(const LiveAlert& alert) override {
    std::lock_guard<std::mutex> lock(mu_);
    alerts_.push_back(alert);
  }
  std::vector<LiveAlert> alerts() const {
    std::lock_guard<std::mutex> lock(mu_);
    return alerts_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<LiveAlert> alerts_;
};

// Spins until `predicate` holds or `deadline_ms` passes.
template <typename Predicate>
bool WaitFor(Predicate predicate, int deadline_ms = 20000) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(deadline_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return predicate();
}

FleetOptions FastOptions() {
  FleetOptions options;
  options.poll_interval_ms = 2;
  return options;
}

TEST(FleetSupervisorTest, PushedJobFinalizesByteIdenticalToBatch) {
  std::vector<LogRecord> records = RealJobRecords();
  ASSERT_FALSE(records.empty());

  FleetSupervisor fleet(MakePowerGraphModel(), FastOptions());
  ASSERT_TRUE(fleet.Start().ok());

  // Push in two batches, like two HTTP POSTs would.
  std::vector<LogRecord> first(records.begin(),
                               records.begin() + records.size() / 2);
  std::vector<LogRecord> second(records.begin() + records.size() / 2,
                                records.end());
  auto queued = fleet.Ingest("job-a", std::move(first), 0);
  ASSERT_TRUE(queued.ok()) << queued.status();
  EXPECT_EQ(*queued, records.size() / 2);
  ASSERT_TRUE(fleet.Ingest("job-a", std::move(second), 0).ok());

  ASSERT_TRUE(WaitFor([&] { return fleet.stats().complete == 1; }));
  auto statuses = fleet.JobStatuses();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].name, "job-a");
  EXPECT_EQ(statuses[0].transport, "push");
  EXPECT_EQ(statuses[0].state, FleetSupervisor::JobState::kComplete);
  EXPECT_EQ(statuses[0].records, records.size());

  auto archive = fleet.Archive("job-a");
  ASSERT_TRUE(archive.ok()) << archive.status();
  EXPECT_EQ(archive->status, ArchiveStatus::kComplete);
  EXPECT_EQ(archive->ToJsonString(2), BatchJson(records));
  fleet.Drain();
}

TEST(FleetSupervisorTest, PullSourceJobCompletesAndSavesToRepository) {
  std::vector<LogRecord> records = RealJobRecords(17);
  std::string log = FreshPath("pull");
  ASSERT_TRUE(WriteLogRecords(log, records).ok());
  std::string repo_dir = FreshDir("pull_repo");

  FleetOptions options = FastOptions();
  options.repo_dir = repo_dir;
  FleetSupervisor fleet(MakePowerGraphModel(), options);
  ASSERT_TRUE(
      fleet.AddSource("pull-a", std::make_unique<FileRecordSource>(log))
          .ok());
  // Duplicate names are rejected, not silently merged.
  EXPECT_EQ(fleet.AddSource("pull-a", std::make_unique<FileRecordSource>(log))
                .code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(fleet.Start().ok());

  ASSERT_TRUE(WaitFor([&] { return fleet.stats().complete == 1; }));
  auto statuses = fleet.JobStatuses();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].transport, "file:" + log);
  EXPECT_EQ(statuses[0].archive_name, "pull-a");
  EXPECT_TRUE(statuses[0].error.empty()) << statuses[0].error;
  fleet.Drain();

  // The archive really landed in the output repository.
  ArchiveRepository repo(repo_dir);
  auto loaded = repo.Load("pull-a");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->ToJsonString(2), BatchJson(records));
}

TEST(FleetSupervisorTest, BadJobNamesAreRejected) {
  FleetSupervisor fleet(MakePowerGraphModel(), FastOptions());
  const std::vector<std::string> bad_names = {
      "", ".hidden", "has space", "slash/y", std::string(65, 'a')};
  for (const std::string& bad : bad_names) {
    auto result = fleet.Ingest(bad, {}, 0);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  EXPECT_EQ(fleet
                .AddSource("bad name",
                           std::make_unique<FileRecordSource>("/dev/null"))
                .code(),
            StatusCode::kInvalidArgument);
  fleet.Drain();
}

TEST(FleetSupervisorTest, FullQueueShedsExplicitlyAndCountsIt) {
  std::vector<LogRecord> records = RealJobRecords();
  ASSERT_GT(records.size(), 8u);

  FleetOptions options = FastOptions();
  options.queue_capacity = 4;
  // Not started: the queue cannot drain, so the second batch must shed.
  FleetSupervisor fleet(MakePowerGraphModel(), options);
  std::vector<LogRecord> first(records.begin(), records.begin() + 3);
  std::vector<LogRecord> second(records.begin() + 3, records.begin() + 8);
  ASSERT_TRUE(fleet.Ingest("job-q", std::move(first), 0).ok());

  auto shed = fleet.Ingest("job-q", std::move(second), 0);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kOutOfRange);

  FleetSupervisor::Stats stats = fleet.stats();
  EXPECT_EQ(stats.shed_batches, 1u);
  EXPECT_EQ(stats.shed_records, 5u);
  auto statuses = fleet.JobStatuses();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].queued, 3u);
  EXPECT_EQ(statuses[0].shed_batches, 1u);
  fleet.Drain();
}

TEST(FleetSupervisorTest, FleetTotalsAddUpThePushedJobs) {
  std::vector<LogRecord> records = RealJobRecords();
  FleetSupervisor fleet(MakePowerGraphModel(), FastOptions());
  // A batch whose body had 3 malformed lines beside its records.
  ASSERT_TRUE(
      fleet.Ingest("job-m", std::vector<LogRecord>(records), 3).ok());
  EXPECT_EQ(fleet.stats().malformed, 3u);  // counted before any tick
  fleet.Tick();

  FleetSupervisor::Stats stats = fleet.stats();
  auto statuses = fleet.JobStatuses();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].state, FleetSupervisor::JobState::kComplete);
  EXPECT_EQ(statuses[0].malformed, 3u);
  EXPECT_EQ(stats.malformed, statuses[0].malformed);
  EXPECT_EQ(stats.records, statuses[0].records);
  EXPECT_EQ(stats.records, records.size());
  EXPECT_EQ(stats.alerts, statuses[0].alerts);
  EXPECT_EQ(stats.complete, 1u);
  EXPECT_EQ(stats.incomplete, 0u);
  EXPECT_EQ(stats.ticks, 1u);
  fleet.Drain();
  EXPECT_EQ(fleet.stats().malformed, 3u);
}

TEST(FleetSupervisorTest, IngestAfterFinalizationIsRejected) {
  std::vector<LogRecord> records = RealJobRecords();
  FleetSupervisor fleet(MakePowerGraphModel(), FastOptions());
  ASSERT_TRUE(fleet.Start().ok());
  std::vector<LogRecord> copy = records;
  ASSERT_TRUE(fleet.Ingest("job-f", std::move(copy), 0).ok());
  ASSERT_TRUE(WaitFor([&] { return fleet.stats().complete == 1; }));

  auto late = fleet.Ingest("job-f", std::vector<LogRecord>(records), 0);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kFailedPrecondition);
  fleet.Drain();
}

TEST(FleetSupervisorTest, DrainFinalizesOpenJobsAsIncomplete) {
  std::vector<LogRecord> records = RealJobRecords();
  // Half a log: the root never closes.
  std::vector<LogRecord> half(records.begin(),
                              records.begin() + records.size() / 2);

  FleetSupervisor fleet(MakePowerGraphModel(), FastOptions());
  ASSERT_TRUE(fleet.Start().ok());
  ASSERT_TRUE(fleet.Ingest("job-half", std::move(half), 0).ok());
  ASSERT_TRUE(WaitFor([&] {
    auto statuses = fleet.JobStatuses();
    return statuses.size() == 1 && statuses[0].queued == 0 &&
           statuses[0].records > 0;
  }));
  fleet.Drain();

  FleetSupervisor::Stats stats = fleet.stats();
  EXPECT_EQ(stats.complete, 0u);
  EXPECT_EQ(stats.incomplete, 1u);
  auto statuses = fleet.JobStatuses();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].state, FleetSupervisor::JobState::kIncomplete);
  auto archive = fleet.Archive("job-half");
  ASSERT_TRUE(archive.ok()) << archive.status();
  EXPECT_EQ(archive->status, ArchiveStatus::kIncomplete);

  // Drain is idempotent.
  fleet.Drain();
  EXPECT_EQ(fleet.stats().incomplete, 1u);
}

TEST(FleetSupervisorTest, StallDetectionUsesTheInjectedClock) {
  std::vector<LogRecord> records = RealJobRecords();
  std::vector<LogRecord> half(records.begin(),
                              records.begin() + records.size() / 2);

  std::atomic<double> fake_now{100.0};
  FleetOptions options = FastOptions();
  options.stall_timeout_s = 30;
  options.now = [&fake_now] { return fake_now.load(); };
  auto sink = std::make_shared<CollectingSink>();

  FleetSupervisor fleet(MakePowerGraphModel(), options);
  fleet.AddAlertSink(sink);
  ASSERT_TRUE(fleet.Start().ok());
  ASSERT_TRUE(fleet.Ingest("job-stall", std::move(half), 0).ok());
  ASSERT_TRUE(WaitFor([&] {
    auto statuses = fleet.JobStatuses();
    return statuses.size() == 1 && statuses[0].queued == 0;
  }));

  // No stall inside the window...
  EXPECT_TRUE(fleet.JobStatuses()[0].state ==
              FleetSupervisor::JobState::kStreaming);
  // ...then the clock leaps past the timeout without new records.
  fake_now.store(100.0 + 31.0);
  ASSERT_TRUE(WaitFor([&] {
    for (const LiveAlert& alert : sink->alerts()) {
      if (alert.finding.kind == FindingKind::kStalledJob) return true;
    }
    return false;
  }));
  auto statuses = fleet.JobStatuses();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].state, FleetSupervisor::JobState::kStalled);

  bool found = false;
  for (const LiveAlert& alert : sink->alerts()) {
    if (alert.finding.kind != FindingKind::kStalledJob) continue;
    found = true;
    EXPECT_EQ(alert.job, "job-stall");
    EXPECT_EQ(alert.finding.severity, Severity::kCritical);
  }
  EXPECT_TRUE(found);
  fleet.Drain();
}

TEST(FleetSupervisorTest, OneLostSourceDoesNotTouchItsNeighbors) {
  std::vector<LogRecord> records = RealJobRecords(19);
  std::string good_log = FreshPath("good");
  ASSERT_TRUE(WriteLogRecords(good_log, records).ok());

  // A TCP source pointed at a dead port, with a tiny budget and a fake
  // clock so every poll really attempts a connect.
  int dead_port = 0;
  {
    auto listener = TcpListener::Bind("127.0.0.1", 0);
    ASSERT_TRUE(listener.ok()) << listener.status();
    dead_port = listener->port();
  }
  TcpRecordSource::Options tcp;
  tcp.port = dead_port;
  tcp.connect_timeout_ms = 50;
  tcp.disconnect_budget = 2;
  auto fake = std::make_shared<std::atomic<double>>(0.0);
  tcp.now = [fake] { return fake->fetch_add(1000.0) + 1000.0; };

  auto sink = std::make_shared<CollectingSink>();
  FleetSupervisor fleet(MakePowerGraphModel(), FastOptions());
  fleet.AddAlertSink(sink);
  ASSERT_TRUE(fleet.AddSource("doomed",
                              std::make_unique<TcpRecordSource>(tcp))
                  .ok());
  ASSERT_TRUE(
      fleet.AddSource("healthy",
                      std::make_unique<FileRecordSource>(good_log))
          .ok());
  ASSERT_TRUE(fleet.Start().ok());

  ASSERT_TRUE(WaitFor([&] {
    FleetSupervisor::Stats stats = fleet.stats();
    return stats.complete == 1 && stats.incomplete == 1;
  }));
  fleet.Drain();

  std::map<std::string, FleetSupervisor::JobStatus> by_name;
  for (auto& status : fleet.JobStatuses()) by_name[status.name] = status;
  EXPECT_EQ(by_name["doomed"].state, FleetSupervisor::JobState::kIncomplete);
  EXPECT_TRUE(by_name["doomed"].source_lost);
  EXPECT_EQ(by_name["healthy"].state, FleetSupervisor::JobState::kComplete);

  // The lost source raised its alert; the healthy job still archived
  // byte-identical to batch.
  bool lost_alert = false;
  for (const LiveAlert& alert : sink->alerts()) {
    if (alert.job == "doomed" &&
        alert.finding.kind == FindingKind::kStalledJob) {
      lost_alert = true;
    }
  }
  EXPECT_TRUE(lost_alert);
  auto healthy = fleet.Archive("healthy");
  ASSERT_TRUE(healthy.ok()) << healthy.status();
  EXPECT_EQ(healthy->ToJsonString(2), BatchJson(records));
}

TEST(FleetSupervisorTest, RotatedFileLogRestartsAssembly) {
  // The job restarts with a fresh log while the fleet follows it: half of
  // run A lands, the file is truncated, then run B is written in full.
  // The job's archive must be B's batch archive — not A's open tree with
  // B's StartOps quarantined as duplicates.
  std::vector<LogRecord> run_a = RealJobRecords(23);
  std::vector<LogRecord> run_b = RealJobRecords(29);
  std::string log = FreshPath("rotate");
  ASSERT_TRUE(WriteLogRecords(log, std::vector<LogRecord>(
                                       run_a.begin(),
                                       run_a.begin() + run_a.size() / 2))
                  .ok());

  FleetSupervisor fleet(MakePowerGraphModel(), FastOptions());
  ASSERT_TRUE(
      fleet.AddSource("rotating", std::make_unique<FileRecordSource>(log))
          .ok());
  fleet.Tick();
  ASSERT_EQ(fleet.JobStatuses()[0].records, run_a.size() / 2);
  ASSERT_TRUE(WriteLogRecords(log, {}).ok());  // truncated
  fleet.Tick();
  ASSERT_TRUE(WriteLogRecords(log, run_b).ok());
  fleet.Tick();

  auto statuses = fleet.JobStatuses();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].rotations, 1u);
  EXPECT_EQ(statuses[0].state, FleetSupervisor::JobState::kComplete);
  EXPECT_EQ(fleet.stats().ticks, 3u);
  auto archive = fleet.Archive("rotating");
  ASSERT_TRUE(archive.ok()) << archive.status();
  EXPECT_EQ(archive->ToJsonString(2), BatchJson(run_b));
  fleet.Drain();
}

TEST(FleetSupervisorTest, ArchiveServesTheInFlightSnapshotUntilFinal) {
  std::vector<LogRecord> records = RealJobRecords();
  FleetSupervisor fleet(MakePowerGraphModel(), FastOptions());
  EXPECT_EQ(fleet.Archive("job-live").status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(fleet
                  .Ingest("job-live",
                          std::vector<LogRecord>(
                              records.begin(),
                              records.begin() + records.size() / 2),
                          0)
                  .ok());
  fleet.Tick();
  auto in_flight = fleet.Archive("job-live");
  ASSERT_TRUE(in_flight.ok()) << in_flight.status();
  ASSERT_NE(in_flight->root, nullptr);
  EXPECT_TRUE(in_flight->root->HasInfo("InFlight"));

  ASSERT_TRUE(fleet
                  .Ingest("job-live",
                          std::vector<LogRecord>(
                              records.begin() + records.size() / 2,
                              records.end()),
                          0)
                  .ok());
  fleet.Tick();
  auto final_archive = fleet.Archive("job-live");
  ASSERT_TRUE(final_archive.ok()) << final_archive.status();
  EXPECT_EQ(final_archive->ToJsonString(2), BatchJson(records));
  fleet.Drain();
}

TEST(FleetSupervisorTest, ArchiveCopiesOutliveFinalizationAndTheSupervisor) {
  // Archive() returns a copy that shares the job's subtrees: one taken
  // while the job streams must stay valid and unchanged after the job
  // finalizes and after the supervisor that built it is destroyed.
  std::vector<LogRecord> records = RealJobRecords();
  std::optional<PerformanceArchive> in_flight;
  std::optional<PerformanceArchive> final_archive;
  std::string in_flight_json;
  {
    FleetSupervisor fleet(MakePowerGraphModel(), FastOptions());
    ASSERT_TRUE(fleet
                    .Ingest("job-kept",
                            std::vector<LogRecord>(
                                records.begin(),
                                records.begin() + records.size() / 2),
                            0)
                    .ok());
    fleet.Tick();
    auto snapshot = fleet.Archive("job-kept");
    ASSERT_TRUE(snapshot.ok()) << snapshot.status();
    in_flight = std::move(*snapshot);
    in_flight_json = in_flight->ToJsonString(2);

    ASSERT_TRUE(fleet
                    .Ingest("job-kept",
                            std::vector<LogRecord>(
                                records.begin() + records.size() / 2,
                                records.end()),
                            0)
                    .ok());
    fleet.Tick();
    auto sealed = fleet.Archive("job-kept");
    ASSERT_TRUE(sealed.ok()) << sealed.status();
    EXPECT_EQ(sealed->status, ArchiveStatus::kComplete);
    final_archive = std::move(*sealed);
    EXPECT_EQ(in_flight->ToJsonString(2), in_flight_json);
    fleet.Drain();
  }
  ASSERT_NE(in_flight->root, nullptr);
  EXPECT_TRUE(in_flight->root->HasInfo("InFlight"));
  EXPECT_EQ(in_flight->ToJsonString(2), in_flight_json);
  EXPECT_EQ(final_archive->ToJsonString(2), BatchJson(records));
}

// ------------------------------------------------ HTTP face ------------

using serve::ClientResponse;

Result<ClientResponse> Roundtrip(int port, const std::string& method,
                                 const std::string& target,
                                 const std::string& body = "") {
  GRANULA_ASSIGN_OR_RETURN(TcpSocket socket,
                           TcpConnect("127.0.0.1", port, 2000));
  GRANULA_RETURN_IF_ERROR(socket.SetTimeouts(5000, 5000));
  GRANULA_RETURN_IF_ERROR(socket.WriteAll(serve::SerializeHttpRequest(
      method, serve::HttpUrl{"127.0.0.1", port, target}, "", body, {},
      /*keep_alive=*/false)));
  return serve::ReadResponse(socket);
}

Json MustParse(const std::string& text) {
  auto parsed = Json::Parse(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status() << " in: " << text;
  return parsed.ok() ? *parsed : Json();
}

std::string ToJsonl(const std::vector<LogRecord>& records) {
  std::string body;
  for (const LogRecord& record : records) {
    record.AppendJsonl(body);
    body.push_back('\n');
  }
  return body;
}

class FleetServiceTest : public testing::Test {
 protected:
  void StartFleet(FleetOptions options = {}) {
    if (options.poll_interval_ms == 20) options.poll_interval_ms = 2;
    fleet_ = std::make_unique<FleetSupervisor>(MakePowerGraphModel(),
                                               std::move(options));
    ASSERT_TRUE(fleet_->Start().ok());
    service_ = std::make_unique<serve::FleetService>(fleet_.get());
    serve::ServerOptions server_options;
    server_options.port = 0;
    server_ = std::make_unique<serve::HttpServer>(service_.get(),
                                                  server_options);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    if (fleet_ != nullptr) fleet_->Drain();
  }

  int port() const { return server_->port(); }

  std::unique_ptr<FleetSupervisor> fleet_;
  std::unique_ptr<serve::FleetService> service_;
  std::unique_ptr<serve::HttpServer> server_;
};

TEST_F(FleetServiceTest, PostedJobCompletesAndShowsInFleetAndStats) {
  StartFleet();
  std::vector<LogRecord> records = RealJobRecords();
  auto posted = Roundtrip(port(), "POST", "/jobs/http-a/records",
                          ToJsonl(records));
  ASSERT_TRUE(posted.ok()) << posted.status();
  ASSERT_EQ(posted->status, 200) << posted->body;
  Json answer = MustParse(posted->body);
  EXPECT_EQ(answer.GetString("job"), "http-a");
  EXPECT_EQ(static_cast<size_t>(answer.GetInt("queued")), records.size());
  EXPECT_EQ(answer.GetInt("malformed"), 0);

  ASSERT_TRUE(WaitFor([&] { return fleet_->stats().complete == 1; }));

  auto fleet = Roundtrip(port(), "GET", "/fleet");
  ASSERT_TRUE(fleet.ok()) << fleet.status();
  ASSERT_EQ(fleet->status, 200);
  Json status = MustParse(fleet->body);
  EXPECT_EQ(status.GetInt("complete"), 1);
  const Json* jobs = status.Find("job_list");
  ASSERT_NE(jobs, nullptr);
  ASSERT_EQ(jobs->size(), 1u);
  EXPECT_EQ(jobs->AsArray()[0].GetString("name"), "http-a");
  EXPECT_EQ(jobs->AsArray()[0].GetString("state"), "complete");

  auto stats = Roundtrip(port(), "GET", "/stats");
  ASSERT_TRUE(stats.ok()) << stats.status();
  Json counters = MustParse(stats->body);
  const Json* ingest = counters.Find("ingest");
  ASSERT_NE(ingest, nullptr);
  EXPECT_EQ(ingest->GetInt("batches"), 1);
  EXPECT_EQ(static_cast<size_t>(ingest->GetInt("records")), records.size());

  // A late duplicate batch answers 409, not silent requeue.
  auto late = Roundtrip(port(), "POST", "/jobs/http-a/records",
                        ToJsonl(records));
  ASSERT_TRUE(late.ok()) << late.status();
  EXPECT_EQ(late->status, 409);
}

TEST_F(FleetServiceTest, FullQueueAnswers429AndCountsTheShed) {
  FleetOptions options;
  options.queue_capacity = 4;
  // Slow the supervisor way down so the queue is still full on the
  // second POST.
  options.poll_interval_ms = 10000;
  StartFleet(std::move(options));
  std::vector<LogRecord> records = RealJobRecords();
  ASSERT_GT(records.size(), 8u);
  std::vector<LogRecord> first(records.begin(), records.begin() + 3);
  std::vector<LogRecord> second(records.begin() + 3, records.begin() + 8);

  auto ok = Roundtrip(port(), "POST", "/jobs/full/records", ToJsonl(first));
  ASSERT_TRUE(ok.ok()) << ok.status();
  ASSERT_EQ(ok->status, 200) << ok->body;

  auto shed = Roundtrip(port(), "POST", "/jobs/full/records",
                        ToJsonl(second));
  ASSERT_TRUE(shed.ok()) << shed.status();
  EXPECT_EQ(shed->status, 429);
  Json error = MustParse(shed->body);
  EXPECT_EQ(error.Find("error")->GetString("code"), "queue_full");

  auto stats = Roundtrip(port(), "GET", "/stats");
  ASSERT_TRUE(stats.ok()) << stats.status();
  Json counters = MustParse(stats->body);
  EXPECT_EQ(counters.Find("ingest")->GetInt("shed_batches"), 1);
}

TEST_F(FleetServiceTest, BadRequestsGetPreciseErrors) {
  StartFleet();
  // Empty body.
  auto empty = Roundtrip(port(), "POST", "/jobs/x/records", "");
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_EQ(empty->status, 400);
  // Nothing but garbage lines.
  auto garbage = Roundtrip(port(), "POST", "/jobs/x/records",
                           "not json\nalso not\n");
  ASSERT_TRUE(garbage.ok()) << garbage.status();
  EXPECT_EQ(garbage->status, 400);
  EXPECT_EQ(MustParse(garbage->body).Find("error")->GetString("code"),
            "malformed_body");
  // Bad job name.
  auto bad_name = Roundtrip(port(), "POST", "/jobs/.x/records",
                            "{\"ts\":1}\n");
  ASSERT_TRUE(bad_name.ok()) << bad_name.status();
  EXPECT_EQ(bad_name->status, 400);
  // Method not allowed on a status route, with Allow.
  auto post_fleet = Roundtrip(port(), "POST", "/fleet", "x");
  ASSERT_TRUE(post_fleet.ok()) << post_fleet.status();
  EXPECT_EQ(post_fleet->status, 405);
  EXPECT_FALSE(post_fleet->headers["allow"].empty());
  // Unknown route.
  auto missing = Roundtrip(port(), "GET", "/nope");
  ASSERT_TRUE(missing.ok()) << missing.status();
  EXPECT_EQ(missing->status, 404);
  // Archive routes 404 when no repository is attached.
  auto archives = Roundtrip(port(), "GET", "/archives");
  ASSERT_TRUE(archives.ok()) << archives.status();
  EXPECT_EQ(archives->status, 404);
  // The index names the endpoints.
  auto index = Roundtrip(port(), "GET", "/");
  ASSERT_TRUE(index.ok()) << index.status();
  EXPECT_EQ(index->status, 200);
  EXPECT_EQ(MustParse(index->body).GetString("service"), "granula-fleet");
}

// ------------------------------------------ one JSONL line rule --------

struct Decoded {
  std::vector<uint64_t> seqs;
  uint64_t malformed = 0;
};

// Polls `source` until it delivered `want` records in total.
void PollUntil(RecordSource& source, size_t want, Decoded& got) {
  ASSERT_TRUE(WaitFor([&] {
    RecordSource::Poll poll = source.PollOnce();
    for (const LogRecord& record : poll.records) got.seqs.push_back(record.seq);
    got.malformed += poll.malformed_lines;
    return got.seqs.size() >= want;
  })) << source.describe() << " delivered " << got.seqs.size();
}

TEST(LiveLineRuleTest, FileFeedAndPostDecodeTheSameBytesAlike) {
  // A CRLF line, whitespace-only lines (skipped, like the batch reader
  // skips them), one malformed line, and an unterminated tail.
  std::vector<LogRecord> records = RealJobRecords();
  std::string bytes;
  records[0].AppendJsonl(bytes);
  bytes += "\n";
  records[1].AppendJsonl(bytes);
  bytes += "\r\n   \t\nnot json\n \r\n";
  records[2].AppendJsonl(bytes);
  bytes += "\n";
  records[3].AppendJsonl(bytes);  // no newline yet
  std::string log = FreshPath("line_rule");
  {
    std::FILE* f = std::fopen(log.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
  }

  serve::LogFeedService log_feed(log);
  serve::HttpServer feed(&log_feed, serve::ServerOptions{});
  ASSERT_TRUE(feed.Start().ok());
  TcpRecordSource::Options tcp;
  tcp.port = feed.port();
  TcpRecordSource follower(tcp);
  FileRecordSource file(log);

  // The tail waits for its newline on both pull transports.
  Decoded from_file, from_feed;
  PollUntil(file, 3, from_file);
  PollUntil(follower, 3, from_feed);
  EXPECT_EQ(from_file.seqs.size(), 3u);
  EXPECT_EQ(from_feed.seqs.size(), 3u);
  {
    std::FILE* f = std::fopen(log.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("\n", f);
    std::fclose(f);
  }
  PollUntil(file, 4, from_file);
  PollUntil(follower, 4, from_feed);
  feed.Stop();
  const std::vector<uint64_t> want = {records[0].seq, records[1].seq,
                                      records[2].seq, records[3].seq};
  EXPECT_EQ(from_file.seqs, want);
  EXPECT_EQ(from_feed.seqs, want);
  EXPECT_EQ(from_file.malformed, 1u);
  EXPECT_EQ(from_feed.malformed, 1u);

  // The same bytes as a POST body: its end ends the tail.
  FleetSupervisor fleet(MakePowerGraphModel(), FastOptions());
  serve::FleetService service(&fleet);
  serve::HttpRequest request;
  request.method = "POST";
  request.path = "/jobs/posted/records";
  request.segments = {"jobs", "posted", "records"};
  request.body = bytes;
  serve::HttpResponse response = service.Handle(request);
  ASSERT_EQ(response.status, 200) << response.body;
  Json answer = MustParse(response.body);
  EXPECT_EQ(answer.GetInt("queued"), 4);
  EXPECT_EQ(answer.GetInt("malformed"), 1);
  fleet.Drain();
}

}  // namespace
}  // namespace granula::core
