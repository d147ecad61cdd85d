// The acceptance chaos run for the fleet daemon: eight concurrent
// streamed jobs across every transport (push batches, local file, HTTP
// feed followers) under injected faults built from the sim fault
// grammar — mid-body resets, a slow peer, one source killed mid-job —
// with one webhook refusing every connection and one answering slowly.
// Afterward: seven complete archives byte-identical to their batch
// equivalents, the killed job incomplete with its alert, and every alert
// accounted for exactly once (delivered or dead-lettered, never both,
// never dropped).

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/socket.h"
#include "granula/archive/archiver.h"
#include "granula/archive/repository.h"
#include "granula/live/alert_sink.h"
#include "granula/live/fleet.h"
#include "granula/live/record_source.h"
#include "granula/live/retry_sink.h"
#include "granula/models/models.h"
#include "granula/monitor/job_logger.h"
#include "granula/serve/feed.h"
#include "granula/serve/server.h"
#include "graph/generators.h"
#include "platforms/powergraph.h"
#include "sim/faults.h"

namespace granula::core {
namespace {

using platform::JobConfig;

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/chaos_" + name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

std::string FreshPath(const std::string& name) {
  std::string path = testing::TempDir() + "/chaos_" + name + ".jsonl";
  std::remove(path.c_str());
  return path;
}

std::vector<LogRecord> RealJobRecords(uint32_t seed) {
  graph::DatagenConfig config;
  config.num_vertices = 400;
  config.avg_degree = 5.0;
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

// Ground truth for the exactly-once accounting: every alert the
// supervisor emitted, in order.
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
  size_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return alerts_.size();
  }

 private:
  mutable std::mutex mu_;
  std::vector<LiveAlert> alerts_;
};

// A webhook that answers 200 — slowly. The slow-peer fault from the
// alert-delivery side: every request stalls before the status line, so a
// sink with a too-tight timeout would dead-letter everything; the
// configured timeout rides it out.
class SlowWebhook {
 public:
  explicit SlowWebhook(double stall_ms) : stall_ms_(stall_ms) {
    auto listener = TcpListener::Bind("127.0.0.1", 0);
    EXPECT_TRUE(listener.ok()) << listener.status();
    listener_ = std::move(listener).value();
    thread_ = std::thread([this] { Loop(); });
  }
  ~SlowWebhook() {
    // Join before closing: Loop() reads the listener on every Accept.
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    listener_.Close();
  }
  int port() const { return listener_.port(); }
  uint64_t served() const { return served_.load(); }

 private:
  void Loop() {
    while (!stop_.load()) {
      auto socket = listener_.Accept(50);
      if (!socket.ok() || !socket->valid()) continue;
      (void)socket->SetTimeouts(2000, 2000);
      std::string request;
      while (request.find("\r\n\r\n") == std::string::npos) {
        if (socket->Read(request) != TcpSocket::ReadOutcome::kData) break;
      }
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(stall_ms_));
      (void)socket->WriteAll(
          "HTTP/1.1 200 OK\r\nContent-Length: 0\r\nConnection: close"
          "\r\n\r\n");
      served_.fetch_add(1);
    }
  }

  double stall_ms_;
  TcpListener listener_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> served_{0};
  std::thread thread_;
};

// Adapts a sim fault plan's net specs into the feed's hook — the
// textual grammar drives the wire faults.
serve::LogFeedService::NetFaultHook HookFromPlan(
    std::shared_ptr<sim::FaultPlan> plan) {
  auto injector = std::make_shared<sim::FaultInjector>(*plan);
  return [plan, injector](uint64_t connection) {
    serve::LogFeedService::NetFault fault;
    const sim::FaultSpec* spec =
        injector->NetFault(static_cast<uint32_t>(connection));
    if (spec == nullptr) return fault;
    switch (spec->kind) {
      case sim::FaultKind::kNetRefuse:
        fault.refuse = true;
        break;
      case sim::FaultKind::kNetReset:
        fault.reset_after_bytes = spec->net_value;
        break;
      case sim::FaultKind::kNetSlow:
        fault.stall_ms = static_cast<double>(spec->net_value);
        break;
      default:
        break;
    }
    return fault;
  };
}

std::shared_ptr<sim::FaultPlan> MustParsePlan(const std::string& text) {
  auto plan = sim::FaultPlan::Parse(text);
  EXPECT_TRUE(plan.ok()) << plan.status();
  return std::make_shared<sim::FaultPlan>(std::move(plan).value());
}

template <typename Predicate>
bool WaitFor(Predicate predicate, int deadline_ms = 90000) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(deadline_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return predicate();
}

TEST(FleetChaosTest, EightFaultedJobsDrainWithExactlyOnceAlertAccounting) {
  // ---- eight distinct real jobs ------------------------------------
  constexpr int kJobs = 8;
  constexpr int kKilled = 7;  // the job whose source dies mid-stream
  std::vector<std::vector<LogRecord>> logs;
  for (int i = 0; i < kJobs; ++i) logs.push_back(RealJobRecords(21 + i));

  // Job files for the pull transports. The killed job's log carries only
  // half its records — its root never closes.
  std::map<int, std::string> paths;
  for (int i = 3; i < kJobs; ++i) {
    std::string path = FreshPath("job" + std::to_string(i));
    std::vector<LogRecord> contents = logs[i];
    if (i == kKilled) {
      contents.resize(contents.size() / 2);
    }
    ASSERT_TRUE(WriteLogRecords(path, contents).ok());
    paths[i] = path;
  }
  const size_t killed_half = logs[kKilled].size() / 2;

  // ---- feeds with wire faults from the sim grammar -----------------
  // job-4: clean. job-5: behind a slow peer. job-6: every connection
  // reset after ~1 KiB. job-7: later killed outright.
  std::map<int, std::unique_ptr<serve::LogFeedService>> feed_logs;
  for (int i = 4; i < kJobs; ++i) {
    feed_logs[i] = std::make_unique<serve::LogFeedService>(paths[i]);
  }
  feed_logs[5]->SetNetFaultHook(
      HookFromPlan(MustParsePlan("netslow:40:3")));
  feed_logs[6]->SetNetFaultHook(
      HookFromPlan(MustParsePlan("netreset:1024:100000")));
  std::map<int, std::unique_ptr<serve::HttpServer>> feeds;
  for (auto& [index, log_feed] : feed_logs) {
    feeds[index] = std::make_unique<serve::HttpServer>(log_feed.get(),
                                                       serve::ServerOptions{});
  }
  for (auto& [index, feed] : feeds) {
    ASSERT_TRUE(feed->Start().ok()) << "feed " << index;
  }

  // ---- alert sinks: ground truth + one dead endpoint + one slow ----
  auto collector = std::make_shared<CollectingSink>();

  int dead_port = 0;
  {
    auto listener = TcpListener::Bind("127.0.0.1", 0);
    ASSERT_TRUE(listener.ok()) << listener.status();
    dead_port = listener->port();
  }
  std::string dead_letters = FreshPath("dead_letters");
  RetrySinkOptions refused_options;
  refused_options.max_attempts = 2;
  refused_options.backoff_base_ms = 1;
  refused_options.backoff_cap_ms = 5;
  refused_options.dead_letter_path = dead_letters;
  auto refused_delivery = WebhookDelivery::Open(
      "http://127.0.0.1:" + std::to_string(dead_port) + "/hook", 250);
  ASSERT_TRUE(refused_delivery.ok()) << refused_delivery.status();
  auto refused_sink = std::make_shared<RetryingAlertSink>(
      std::move(refused_delivery).value(), refused_options);

  SlowWebhook slow_peer(/*stall_ms=*/30);
  RetrySinkOptions slow_options;
  slow_options.max_attempts = 3;
  slow_options.backoff_base_ms = 1;
  slow_options.backoff_cap_ms = 5;
  auto slow_delivery = WebhookDelivery::Open(
      "http://127.0.0.1:" + std::to_string(slow_peer.port()) + "/alerts",
      5000);
  ASSERT_TRUE(slow_delivery.ok()) << slow_delivery.status();
  auto slow_sink = std::make_shared<RetryingAlertSink>(
      std::move(slow_delivery).value(), slow_options);

  // ---- the supervisor ----------------------------------------------
  std::string repo_dir = FreshDir("repo");
  FleetOptions options;
  options.poll_interval_ms = 2;
  options.repo_dir = repo_dir;
  // Eager thresholds so healthy jobs raise choke-point alerts too — the
  // accounting below covers more than the single lost-source alert.
  options.chokepoints.dominant_phase_fraction = 0.20;
  options.chokepoints.min_phase_fraction = 0.01;
  FleetSupervisor fleet(MakePowerGraphModel(), options);
  fleet.AddAlertSink(collector);
  fleet.AddAlertSink(refused_sink);
  fleet.AddAlertSink(slow_sink);

  ASSERT_TRUE(
      fleet.AddSource("job-3",
                      std::make_unique<FileRecordSource>(paths[3]))
          .ok());
  for (int i = 4; i < kJobs; ++i) {
    TcpRecordSource::Options tcp;
    tcp.port = feeds[i]->port();
    tcp.backoff_base_ms = 1;
    tcp.backoff_cap_ms = 5;
    if (i == 5) tcp.path = "/log";  // the feed serves its log at any path
    if (i == kKilled) {
      tcp.connect_timeout_ms = 100;
      tcp.disconnect_budget = 3;
    }
    ASSERT_TRUE(fleet
                    .AddSource("job-" + std::to_string(i),
                               std::make_unique<TcpRecordSource>(tcp))
                    .ok());
  }
  ASSERT_TRUE(fleet.Start().ok());

  // Push jobs 0-2 in two batches each, like HTTP POSTs landing.
  for (int i = 0; i < 3; ++i) {
    std::string name = "job-" + std::to_string(i);
    size_t half = logs[i].size() / 2;
    std::vector<LogRecord> first(logs[i].begin(), logs[i].begin() + half);
    std::vector<LogRecord> second(logs[i].begin() + half, logs[i].end());
    auto a = fleet.Ingest(name, std::move(first), 0);
    ASSERT_TRUE(a.ok()) << a.status();
    auto b = fleet.Ingest(name, std::move(second), 0);
    ASSERT_TRUE(b.ok()) << b.status();
  }

  // ---- kill one source mid-stream ----------------------------------
  ASSERT_TRUE(WaitFor([&] {
    for (const auto& status : fleet.JobStatuses()) {
      if (status.name == "job-7") return status.records >= killed_half;
    }
    return false;
  })) << "job-7 never reached its half-log point";
  feeds[kKilled]->Stop();  // connects now fail; the budget burns down

  ASSERT_TRUE(WaitFor([&] {
    FleetSupervisor::Stats stats = fleet.stats();
    return stats.complete == 7 && stats.incomplete == 1;
  })) << "complete=" << fleet.stats().complete
      << " incomplete=" << fleet.stats().incomplete;

  // ---- graceful drain (the SIGINT path) ----------------------------
  fleet.Drain();
  for (auto& [index, feed] : feeds) feed->Stop();

  // ---- seven complete archives, byte-identical to batch ------------
  ArchiveRepository repo(repo_dir);
  std::map<std::string, FleetSupervisor::JobStatus> by_name;
  for (auto& status : fleet.JobStatuses()) by_name[status.name] = status;
  ASSERT_EQ(by_name.size(), 8u);
  for (int i = 0; i < kJobs; ++i) {
    std::string name = "job-" + std::to_string(i);
    const FleetSupervisor::JobStatus& status = by_name[name];
    EXPECT_TRUE(status.error.empty()) << name << ": " << status.error;
    auto loaded = repo.Load(name);
    ASSERT_TRUE(loaded.ok()) << name << ": " << loaded.status();
    if (i == kKilled) continue;
    EXPECT_EQ(status.state, FleetSupervisor::JobState::kComplete) << name;
    EXPECT_EQ(loaded->status, ArchiveStatus::kComplete) << name;
    EXPECT_EQ(loaded->ToJsonString(2), BatchJson(logs[i])) << name;
  }

  // The killed job: incomplete, lost source, its alert on record.
  EXPECT_EQ(by_name["job-7"].state, FleetSupervisor::JobState::kIncomplete);
  EXPECT_TRUE(by_name["job-7"].source_lost);
  auto killed_archive = repo.Load("job-7");
  ASSERT_TRUE(killed_archive.ok()) << killed_archive.status();
  EXPECT_EQ(killed_archive->status, ArchiveStatus::kIncomplete);
  bool lost_alert = false;
  for (const LiveAlert& alert : collector->alerts()) {
    if (alert.job == "job-7" &&
        alert.finding.kind == FindingKind::kStalledJob) {
      lost_alert = true;
    }
  }
  EXPECT_TRUE(lost_alert) << "no lost-source alert for job-7";

  // The reset-riddled source really reconnected, and still completed.
  EXPECT_GT(by_name["job-6"].reconnects, 0u);
  EXPECT_GT(feed_logs[6]->transport().connections.load(), 1u);

  // ---- exactly-once alert accounting -------------------------------
  const uint64_t total_alerts = collector->count();
  ASSERT_GE(total_alerts, 1u);
  EXPECT_EQ(fleet.stats().alerts, total_alerts);

  RetryingAlertSink::Stats refused_stats = refused_sink->stats();
  EXPECT_EQ(refused_stats.enqueued, total_alerts);
  EXPECT_EQ(refused_stats.delivered, 0u);
  EXPECT_EQ(refused_stats.dead_lettered, total_alerts);
  EXPECT_EQ(refused_stats.delivered + refused_stats.dead_lettered,
            refused_stats.enqueued);
  EXPECT_EQ(refused_stats.pending, 0u);
  // Each dead-lettered alert is on disk exactly once, with the original
  // alert embedded.
  auto dead = ReadAlertJsonl(dead_letters);
  ASSERT_TRUE(dead.ok()) << dead.status();
  EXPECT_EQ(dead->quarantined, 0u);
  ASSERT_EQ(dead->alerts.size(), refused_stats.dead_lettered);
  for (const Json& line : dead->alerts) {
    EXPECT_NE(line.Find("alert"), nullptr);
    EXPECT_NE(line.Find("dead_letter"), nullptr);
  }

  RetryingAlertSink::Stats slow_stats = slow_sink->stats();
  EXPECT_EQ(slow_stats.enqueued, total_alerts);
  EXPECT_EQ(slow_stats.delivered, total_alerts);
  EXPECT_EQ(slow_stats.dead_lettered, 0u);
  EXPECT_EQ(slow_stats.pending, 0u);
  EXPECT_EQ(slow_peer.served(), total_alerts);

  // Nothing was shed anywhere on the ingest path.
  EXPECT_EQ(fleet.stats().shed_batches, 0u);
  EXPECT_EQ(fleet.stats().records,
            logs[0].size() + logs[1].size() + logs[2].size() +
                logs[3].size() + logs[4].size() + logs[5].size() +
                logs[6].size() + killed_half);
}

}  // namespace
}  // namespace granula::core
