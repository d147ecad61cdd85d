// Fault-hardened alert delivery: the webhook/command deliveries behind
// RetryingAlertSink, retry-with-backoff, dead-lettering on exhaustion,
// bounded-queue overflow shedding, and the JsonlAlertSink torn-write
// contract. The invariant every test closes on: after Flush(), each
// enqueued alert is accounted exactly once as delivered or dead-lettered.

#include "granula/live/retry_sink.h"

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/mapped_file.h"
#include "common/socket.h"
#include "common/strings.h"
#include "granula/live/alert_sink.h"
#include "granula/serve/webhook.h"

namespace granula::core {
namespace {

using serve::ParseHttpUrl;
using serve::WebhookDelivery;

std::string FreshPath(const std::string& name) {
  std::string path = testing::TempDir() + "/retry_sink_" + name + ".jsonl";
  std::remove(path.c_str());
  return path;
}

LiveAlert TestAlert(const std::string& description = "phase dominates") {
  LiveAlert alert;
  alert.finding.kind = FindingKind::kDominantPhase;
  alert.finding.severity = Severity::kWarning;
  alert.finding.operation = "Job/LoadGraph";
  alert.finding.description = description;
  alert.finding.metric = 0.7;
  alert.in_flight = true;
  alert.job = "job-a";
  return alert;
}

// A scripted single-threaded webhook endpoint: accepts connections one at
// a time and answers each according to the next entry of `script` —
// "200"/"500" answer with that status, "refuse" closes without reading,
// "stall" reads the request and never answers. Entries past the script's
// end repeat the last one.
class StubWebhook {
 public:
  explicit StubWebhook(std::vector<std::string> script)
      : script_(std::move(script)) {
    auto listener = TcpListener::Bind("127.0.0.1", 0);
    EXPECT_TRUE(listener.ok()) << listener.status();
    listener_ = std::move(listener).value();
    thread_ = std::thread([this] { Loop(); });
  }
  ~StubWebhook() {
    stop_.store(true);
    listener_.Close();
    if (thread_.joinable()) thread_.join();
  }

  int port() const { return listener_.port(); }
  uint64_t hits() const { return hits_.load(); }

 private:
  void Loop() {
    size_t index = 0;
    while (!stop_.load()) {
      auto socket = listener_.Accept(50);
      if (!socket.ok() || !socket->valid()) continue;
      const std::string& action =
          script_[std::min(index, script_.size() - 1)];
      ++index;
      hits_.fetch_add(1);
      if (action == "refuse") continue;  // close without reading
      socket->SetTimeouts(1000, 1000);
      // Read the request headers + body (best effort; the client sends
      // everything up front and Content-Length framing keeps it short).
      std::string request;
      while (request.find("\r\n\r\n") == std::string::npos) {
        if (socket->Read(request) != TcpSocket::ReadOutcome::kData) break;
      }
      if (action == "stall") {
        // Hold the connection open without answering until the client
        // gives up (its read timeout) or we are stopped.
        while (!stop_.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        continue;
      }
      std::string response = "HTTP/1.1 " + action +
                             (action == "200" ? " OK" : " Oops") +
                             "\r\nContent-Length: 0\r\n\r\n";
      (void)socket->WriteAll(response);
    }
  }

  std::vector<std::string> script_;
  TcpListener listener_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> hits_{0};
};

RetrySinkOptions FastRetries(uint32_t attempts,
                             const std::string& dead_letter = "") {
  RetrySinkOptions options;
  options.max_attempts = attempts;
  options.backoff_base_ms = 1;
  options.backoff_cap_ms = 5;
  options.dead_letter_path = dead_letter;
  return options;
}

TEST(ParseHttpUrlTest, AcceptsAndRejects) {
  auto url = ParseHttpUrl("http://alerts.example:9100/hook");
  ASSERT_TRUE(url.ok()) << url.status();
  EXPECT_EQ(url->host, "alerts.example");
  EXPECT_EQ(url->port, 9100);
  EXPECT_EQ(url->path, "/hook");

  auto defaulted = ParseHttpUrl("http://alerts.example");
  ASSERT_TRUE(defaulted.ok()) << defaulted.status();
  EXPECT_EQ(defaulted->port, 80);
  EXPECT_EQ(defaulted->path, "/");

  EXPECT_FALSE(ParseHttpUrl("https://secure.example/").ok());
  EXPECT_FALSE(ParseHttpUrl("alerts.example").ok());
  EXPECT_FALSE(ParseHttpUrl("http://host:notaport/").ok());
}

TEST(RetrySinkTest, DeliversToAHealthyWebhook) {
  StubWebhook stub({"200"});
  auto delivery = WebhookDelivery::Open(
      "http://127.0.0.1:" + std::to_string(stub.port()) + "/hook", 1000);
  ASSERT_TRUE(delivery.ok()) << delivery.status();
  RetryingAlertSink sink(std::move(delivery).value(), FastRetries(3));

  sink.OnAlert(TestAlert());
  sink.Flush();

  RetryingAlertSink::Stats stats = sink.stats();
  EXPECT_EQ(stats.enqueued, 1u);
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_EQ(stats.dead_lettered, 0u);
  EXPECT_EQ(stats.attempts, 1u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.pending, 0u);
}

TEST(RetrySinkTest, RetriesThroughTransientFailures) {
  // Two bad answers, then recovery: the alert must land on attempt 3.
  StubWebhook stub({"refuse", "500", "200"});
  auto delivery = WebhookDelivery::Open(
      "http://127.0.0.1:" + std::to_string(stub.port()) + "/", 1000);
  ASSERT_TRUE(delivery.ok()) << delivery.status();
  RetryingAlertSink sink(std::move(delivery).value(), FastRetries(5));

  sink.OnAlert(TestAlert());
  sink.Flush();

  RetryingAlertSink::Stats stats = sink.stats();
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_EQ(stats.dead_lettered, 0u);
  EXPECT_EQ(stats.attempts, 3u);
  EXPECT_EQ(stats.retries, 2u);
}

TEST(RetrySinkTest, ExhaustionDeadLettersWithTheOriginalAlert) {
  // A dead endpoint: bind then close, so every connect is refused.
  int dead_port = 0;
  {
    auto listener = TcpListener::Bind("127.0.0.1", 0);
    ASSERT_TRUE(listener.ok()) << listener.status();
    dead_port = listener->port();
  }
  std::string dead_letter = FreshPath("dead");
  auto delivery = WebhookDelivery::Open(
      "http://127.0.0.1:" + std::to_string(dead_port) + "/hook", 200);
  ASSERT_TRUE(delivery.ok()) << delivery.status();

  LiveAlert first = TestAlert("first alert");
  LiveAlert second = TestAlert("second alert");
  {
    RetryingAlertSink sink(std::move(delivery).value(),
                           FastRetries(2, dead_letter));
    sink.OnAlert(first);
    sink.OnAlert(second);
    sink.Flush();
    RetryingAlertSink::Stats stats = sink.stats();
    EXPECT_EQ(stats.enqueued, 2u);
    EXPECT_EQ(stats.delivered, 0u);
    EXPECT_EQ(stats.dead_lettered, 2u);
    EXPECT_EQ(stats.attempts, 4u);  // 2 alerts x max_attempts 2
    EXPECT_EQ(stats.dead_letter_errors, 0u);
  }

  // The dead-letter file carries each alert verbatim plus the failure
  // envelope; nothing was lost and nothing duplicated.
  auto mapped = MappedFile::Open(dead_letter);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  std::vector<std::string> lines;
  for (std::string& line : StrSplit(mapped->data(), '\n')) {
    if (!line.empty()) lines.push_back(std::move(line));
  }
  ASSERT_EQ(lines.size(), 2u);
  for (size_t i = 0; i < lines.size(); ++i) {
    auto parsed = Json::Parse(lines[i]);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    const Json* alert = parsed->Find("alert");
    ASSERT_NE(alert, nullptr);
    EXPECT_EQ(alert->GetString("description"),
              i == 0 ? "first alert" : "second alert");
    EXPECT_EQ(alert->GetString("job"), "job-a");
    const Json* envelope = parsed->Find("dead_letter");
    ASSERT_NE(envelope, nullptr);
    EXPECT_EQ(envelope->GetInt("attempts"), 2);
    EXPECT_FALSE(envelope->GetString("error").empty());
  }
}

TEST(RetrySinkTest, SlowPeerTimesOutInsteadOfWedging) {
  StubWebhook stub({"stall"});
  std::string dead_letter = FreshPath("slow");
  auto delivery = WebhookDelivery::Open(
      "http://127.0.0.1:" + std::to_string(stub.port()) + "/", 150);
  ASSERT_TRUE(delivery.ok()) << delivery.status();
  RetryingAlertSink sink(std::move(delivery).value(),
                         FastRetries(1, dead_letter));

  auto start = std::chrono::steady_clock::now();
  sink.OnAlert(TestAlert());
  sink.Flush();
  double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  RetryingAlertSink::Stats stats = sink.stats();
  EXPECT_EQ(stats.delivered, 0u);
  EXPECT_EQ(stats.dead_lettered, 1u);
  // One bounded timeout, not a hang: well under a few seconds.
  EXPECT_LT(elapsed_s, 5.0);
}

TEST(RetrySinkTest, OverflowShedsToTheDeadLetterNeverSilently) {
  std::string dead_letter = FreshPath("overflow");
  // A slow but successful delivery (the command sleeps per alert) with a
  // tiny queue: the burst below must overflow.
  RetrySinkOptions options = FastRetries(1, dead_letter);
  options.queue_capacity = 1;
  RetryingAlertSink sink(std::make_unique<CommandDelivery>("sleep 0.3"),
                         options);

  const int kBurst = 5;
  for (int i = 0; i < kBurst; ++i) {
    sink.OnAlert(TestAlert("burst " + std::to_string(i)));
  }
  sink.Flush();

  RetryingAlertSink::Stats stats = sink.stats();
  EXPECT_EQ(stats.enqueued, static_cast<uint64_t>(kBurst));
  EXPECT_GE(stats.dropped_overflow, 1u);
  // The exactly-once ledger: every alert ended as delivered or
  // dead-lettered, nothing vanished.
  EXPECT_EQ(stats.delivered + stats.dead_lettered,
            static_cast<uint64_t>(kBurst));
  EXPECT_EQ(stats.pending, 0u);

  auto contents = ReadAlertJsonl(dead_letter);
  ASSERT_TRUE(contents.ok()) << contents.status();
  EXPECT_EQ(contents->alerts.size(), stats.dead_lettered);
}

TEST(RetrySinkTest, CommandDeliveryRunsTheHook) {
  std::string capture = FreshPath("cmd");
  RetryingAlertSink sink(
      std::make_unique<CommandDelivery>("cat >> " + capture),
      FastRetries(2));
  sink.OnAlert(TestAlert("to the hook"));
  sink.Flush();
  EXPECT_EQ(sink.stats().delivered, 1u);

  auto contents = ReadAlertJsonl(capture);
  ASSERT_TRUE(contents.ok()) << contents.status();
  ASSERT_EQ(contents->alerts.size(), 1u);
  EXPECT_EQ(contents->alerts[0].GetString("description"), "to the hook");
}

TEST(RetrySinkTest, FailingCommandDeadLetters) {
  RetryingAlertSink sink(std::make_unique<CommandDelivery>("exit 3"),
                         FastRetries(2));
  sink.OnAlert(TestAlert());
  sink.Flush();
  RetryingAlertSink::Stats stats = sink.stats();
  EXPECT_EQ(stats.delivered, 0u);
  EXPECT_EQ(stats.dead_lettered, 1u);
  EXPECT_EQ(stats.attempts, 2u);
}

// Satellite: the JSONL alert log writes each line in one buffered fwrite
// + flush, and the reader quarantines a torn trailing line instead of
// failing the whole log.
TEST(JsonlAlertSinkTest, TornTrailingLineIsQuarantinedNotFatal) {
  std::string path = FreshPath("torn");
  {
    auto sink = JsonlAlertSink::Open(path);
    ASSERT_TRUE(sink.ok()) << sink.status();
    (*sink)->OnAlert(TestAlert("alert one"));
    (*sink)->OnAlert(TestAlert("alert two"));
    (*sink)->Flush();
    EXPECT_EQ((*sink)->write_errors(), 0u);
    EXPECT_TRUE((*sink)->status().ok());
  }
  // Simulate the writer dying mid-line: a JSON prefix with no newline.
  {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char torn[] = "{\"kind\":\"dominant_phase\",\"sever";
    std::fwrite(torn, 1, sizeof(torn) - 1, f);
    std::fclose(f);
  }

  auto contents = ReadAlertJsonl(path);
  ASSERT_TRUE(contents.ok()) << contents.status();
  ASSERT_EQ(contents->alerts.size(), 2u);
  EXPECT_EQ(contents->alerts[0].GetString("description"), "alert one");
  EXPECT_EQ(contents->alerts[1].GetString("description"), "alert two");
  EXPECT_EQ(contents->quarantined, 1u);

  EXPECT_FALSE(ReadAlertJsonl(FreshPath("missing")).ok());
}

TEST(JsonlAlertSinkTest, JobKeyAppearsOnlyWhenStamped) {
  LiveAlert fleet_alert = TestAlert();
  Json with_job = AlertToJson(fleet_alert);
  EXPECT_EQ(with_job.GetString("job"), "job-a");

  fleet_alert.job.clear();
  Json without_job = AlertToJson(fleet_alert);
  EXPECT_EQ(without_job.Find("job"), nullptr);
}

}  // namespace
}  // namespace granula::core
