// Transport-layer tests for the fleet's RecordSource abstraction: the
// local-file source, the TCP follower against the HTTP feed (Range
// resume, case-insensitive headers, 400 on a bad Range, a closed follower
// freeing its connection thread),
// reconnect-with-resume under injected disconnects, the disconnect
// budget, bounded partial-line buffering, and the SIGPIPE regression for
// socket writes to a closed peer.

#include "granula/live/record_source.h"

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/socket.h"
#include "granula/archive/archiver.h"
#include "granula/live/streaming_archiver.h"
#include "granula/models/models.h"
#include "granula/monitor/job_logger.h"
#include "granula/serve/feed.h"
#include "granula/serve/server.h"
#include "graph/generators.h"
#include "platforms/powergraph.h"

namespace granula::core {
namespace {

using platform::JobConfig;
using platform::JobResult;
using serve::HttpServer;
using serve::LogFeedService;
using serve::ServerOptions;

std::string FreshPath(const std::string& name) {
  std::string path = testing::TempDir() + "/record_source_" + name + ".jsonl";
  std::remove(path.c_str());
  return path;
}

// A real platform run's log: the parity tests compare streamed assembly
// against the batch archiver over these records.
std::vector<LogRecord> RealJobRecords() {
  graph::DatagenConfig config;
  config.num_vertices = 600;
  config.avg_degree = 6.0;
  config.seed = 11;
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

// Polls `source` until `want` records arrived (or the source is lost, or
// the deadline passes).
void Drain(RecordSource& source, size_t want, std::vector<LogRecord>& out,
           uint64_t& malformed, int deadline_ms = 20000) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(deadline_ms);
  while (out.size() < want && !source.lost() &&
         std::chrono::steady_clock::now() < deadline) {
    RecordSource::Poll poll = source.PollOnce();
    for (LogRecord& record : poll.records) out.push_back(std::move(record));
    malformed += poll.malformed_lines;
    if (poll.records.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

std::string ArchiveJson(const std::vector<LogRecord>& records) {
  StreamingArchiver archiver(MakePowerGraphModel());
  archiver.AppendAll(records);
  archiver.Finish();
  auto snapshot = archiver.Snapshot();
  EXPECT_TRUE(snapshot.ok()) << snapshot.status();
  return snapshot.ok() ? snapshot->ToJsonString(2) : "";
}

TEST(FileRecordSourceTest, DrainsALocalLogAndMatchesBatch) {
  std::vector<LogRecord> records = RealJobRecords();
  ASSERT_FALSE(records.empty());
  std::string log = FreshPath("file");
  ASSERT_TRUE(WriteLogRecords(log, records).ok());

  FileRecordSource source(log);
  EXPECT_EQ(source.describe(), "file:" + log);
  std::vector<LogRecord> streamed;
  uint64_t malformed = 0;
  Drain(source, records.size(), streamed, malformed);

  ASSERT_EQ(streamed.size(), records.size());
  EXPECT_EQ(malformed, 0u);
  EXPECT_FALSE(source.lost());
  EXPECT_GT(source.bytes_consumed(), 0u);

  auto batch =
      Archiver().Build(MakePowerGraphModel(), records, {}, {});
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_EQ(ArchiveJson(streamed), batch->ToJsonString(2));
}

TEST(TcpRecordSourceTest, HttpStreamingMatchesBatch) {
  std::vector<LogRecord> records = RealJobRecords();
  std::string log = FreshPath("stream");
  ASSERT_TRUE(WriteLogRecords(log, records).ok());

  LogFeedService log_feed(log);
  HttpServer feed(&log_feed, ServerOptions{});
  ASSERT_TRUE(feed.Start().ok());

  TcpRecordSource::Options options;
  options.port = feed.port();
  TcpRecordSource source(options);
  EXPECT_EQ(source.describe(),
            "tcp://127.0.0.1:" + std::to_string(feed.port()));
  std::vector<LogRecord> streamed;
  uint64_t malformed = 0;
  Drain(source, records.size(), streamed, malformed);
  feed.Stop();

  ASSERT_EQ(streamed.size(), records.size());
  EXPECT_EQ(malformed, 0u);
  EXPECT_FALSE(source.lost());

  auto batch = Archiver().Build(MakePowerGraphModel(), records, {}, {});
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_EQ(ArchiveJson(streamed), batch->ToJsonString(2));
}

TEST(TcpRecordSourceTest, AnyRequestPathServesTheLog) {
  std::vector<LogRecord> records = RealJobRecords();
  std::string log = FreshPath("http");
  ASSERT_TRUE(WriteLogRecords(log, records).ok());

  LogFeedService log_feed(log);
  HttpServer feed(&log_feed, ServerOptions{});
  ASSERT_TRUE(feed.Start().ok());

  TcpRecordSource::Options options;
  options.port = feed.port();
  options.path = "/log";
  TcpRecordSource source(options);
  EXPECT_EQ(source.describe(),
            "tcp://127.0.0.1:" + std::to_string(feed.port()) + "/log");
  std::vector<LogRecord> streamed;
  uint64_t malformed = 0;
  Drain(source, records.size(), streamed, malformed);
  feed.Stop();

  ASSERT_EQ(streamed.size(), records.size());
  EXPECT_EQ(malformed, 0u);

  auto batch = Archiver().Build(MakePowerGraphModel(), records, {}, {});
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_EQ(ArchiveJson(streamed), batch->ToJsonString(2));
}

TEST(TcpRecordSourceTest, SurvivesRepeatedResetsWithoutLossOrDuplicates) {
  std::vector<LogRecord> records = RealJobRecords();
  std::string log = FreshPath("flaky");
  ASSERT_TRUE(WriteLogRecords(log, records).ok());

  // Every connection is reset after ~1 KiB of payload — the follower must
  // reconnect and resume from its consumed-line offset every time, so the
  // final stream has no gap and no duplicate.
  LogFeedService log_feed(log);
  HttpServer feed(&log_feed, ServerOptions{});
  log_feed.SetNetFaultHook([](uint64_t) {
    LogFeedService::NetFault fault;
    fault.reset_after_bytes = 1024;
    return fault;
  });
  ASSERT_TRUE(feed.Start().ok());

  TcpRecordSource::Options options;
  options.port = feed.port();
  options.backoff_base_ms = 1;
  options.backoff_cap_ms = 5;
  TcpRecordSource source(options);
  std::vector<LogRecord> streamed;
  uint64_t malformed = 0;
  Drain(source, records.size(), streamed, malformed, 60000);
  feed.Stop();

  ASSERT_EQ(streamed.size(), records.size());
  EXPECT_EQ(malformed, 0u);
  EXPECT_FALSE(source.lost());
  // The fault guaranteed many disconnects; each one resumed.
  EXPECT_GT(source.reconnects(), 2u);

  // Byte-identical final archive, as if nothing had ever failed.
  auto batch = Archiver().Build(MakePowerGraphModel(), records, {}, {});
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_EQ(ArchiveJson(streamed), batch->ToJsonString(2));
}

TEST(TcpRecordSourceTest, DisconnectBudgetDeclaresTheSourceLost) {
  // A dead endpoint: bind a port, then close it before anyone connects.
  int dead_port = 0;
  {
    auto listener = TcpListener::Bind("127.0.0.1", 0);
    ASSERT_TRUE(listener.ok()) << listener.status();
    dead_port = listener->port();
  }

  TcpRecordSource::Options options;
  options.port = dead_port;
  options.connect_timeout_ms = 100;
  options.disconnect_budget = 3;
  // Fake clock leaping far past any backoff window per poll, so each
  // PollOnce() really attempts a connect and the test never sleeps.
  double fake_now = 0;
  options.now = [&fake_now] { return fake_now += 1000.0; };
  TcpRecordSource source(options);

  for (int i = 0; i < 10 && !source.lost(); ++i) {
    RecordSource::Poll poll = source.PollOnce();
    EXPECT_TRUE(poll.records.empty());
  }
  EXPECT_TRUE(source.lost());
  EXPECT_GE(source.consecutive_failures(), 3u);
  // Lost is terminal: polling a lost source stays empty and cheap.
  EXPECT_TRUE(source.PollOnce().records.empty());
}

TEST(TcpRecordSourceTest, OversizedPartialLineIsBoundedAndCounted) {
  std::vector<LogRecord> records = RealJobRecords();
  std::string log = FreshPath("oversize");
  // A junk line past the 1 MiB line cap (no newline until the end)
  // followed by the real log.
  {
    std::string contents(JsonlLineDecoder::kMaxLineBytes + 64 * 1024, 'x');
    contents.push_back('\n');
    for (const LogRecord& record : records) {
      record.AppendJsonl(contents);
      contents.push_back('\n');
    }
    std::FILE* f = std::fopen(log.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(contents.data(), 1, contents.size(), f);
    std::fclose(f);
  }

  LogFeedService log_feed(log);
  HttpServer feed(&log_feed, ServerOptions{});
  ASSERT_TRUE(feed.Start().ok());

  TcpRecordSource::Options options;
  options.port = feed.port();
  TcpRecordSource source(options);
  std::vector<LogRecord> streamed;
  uint64_t malformed = 0;
  Drain(source, records.size(), streamed, malformed);
  feed.Stop();

  ASSERT_EQ(streamed.size(), records.size());
  EXPECT_GE(malformed, 1u);  // the endless line was dropped, not buffered
  EXPECT_FALSE(source.lost());
}

// Sends one raw request head to `port` and returns everything the feed
// answers within a short read window.
std::string RawExchange(int port, const std::string& head) {
  auto socket = TcpConnect("127.0.0.1", port, 1000);
  EXPECT_TRUE(socket.ok()) << socket.status();
  if (!socket.ok()) return "";
  EXPECT_TRUE(socket->SetTimeouts(200, 1000).ok());
  EXPECT_TRUE(socket->WriteAll(head).ok());
  std::string reply;
  while (socket->Read(reply) == TcpSocket::ReadOutcome::kData) {
  }
  return reply;
}

TEST(LogFeedServiceTest, RangeHeaderIsCaseInsensitiveAndValidated) {
  std::string log = FreshPath("range");
  {
    std::FILE* f = std::fopen(log.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("0123456789\n", f);
    std::fclose(f);
  }
  LogFeedService log_feed(log);
  HttpServer feed(&log_feed, ServerOptions{});
  ASSERT_TRUE(feed.Start().ok());

  // A lower-case header resumes at its offset: the first chunk carries
  // bytes 4.. ("456789\n", 7 bytes), not the log from byte 0.
  std::string resumed = RawExchange(
      feed.port(), "GET / HTTP/1.1\r\nhost: x\r\nrange: bytes=4-\r\n\r\n");
  EXPECT_EQ(resumed.rfind("HTTP/1.1 200", 0), 0u) << resumed;
  EXPECT_NE(resumed.find("\r\n\r\n7\r\n456789\n\r\n"), std::string::npos)
      << resumed;

  // A malformed Range is refused outright, never silently restarted at 0.
  for (const char* range : {"bytes=abc-", "bytes=4-9", "lines=4-"}) {
    std::string refused = RawExchange(
        feed.port(),
        std::string("GET / HTTP/1.1\r\nRange: ") + range + "\r\n\r\n");
    EXPECT_EQ(refused.rfind("HTTP/1.1 400", 0), 0u) << range << ": "
                                                     << refused;
  }
  // So is a request that is not HTTP at all.
  EXPECT_EQ(RawExchange(feed.port(), "FEED 0\r\n\r\n").rfind("HTTP/1.1 400", 0),
            0u);
  feed.Stop();
}

// A follower that hangs up on an idle log must free its connection
// thread. With one thread, a stream nobody reads would otherwise keep the
// next follower queued until the log grows.
TEST(LogFeedServiceTest, ClosedFollowerFreesItsConnectionThread) {
  std::vector<LogRecord> records = RealJobRecords();
  std::string log = FreshPath("hangup");
  ASSERT_TRUE(WriteLogRecords(log, records).ok());

  LogFeedService log_feed(log);
  ServerOptions server_options;
  server_options.threads = 1;
  HttpServer feed(&log_feed, server_options);
  ASSERT_TRUE(feed.Start().ok());

  {
    // Follower A reads the response head, then closes.
    auto socket = TcpConnect("127.0.0.1", feed.port(), 1000);
    ASSERT_TRUE(socket.ok()) << socket.status();
    ASSERT_TRUE(socket->SetTimeouts(2000, 1000).ok());
    ASSERT_TRUE(socket->WriteAll("GET / HTTP/1.1\r\n\r\n").ok());
    std::string head;
    while (head.find("\r\n\r\n") == std::string::npos &&
           socket->Read(head) == TcpSocket::ReadOutcome::kData) {
    }
    ASSERT_EQ(head.rfind("HTTP/1.1 200", 0), 0u) << head;
  }

  // Follower B gets the only thread and drains the unchanged log.
  TcpRecordSource::Options options;
  options.port = feed.port();
  TcpRecordSource source(options);
  std::vector<LogRecord> streamed;
  uint64_t malformed = 0;
  Drain(source, records.size(), streamed, malformed, /*deadline_ms=*/2000);
  feed.Stop();

  ASSERT_EQ(streamed.size(), records.size());
  EXPECT_EQ(malformed, 0u);
  auto batch = Archiver().Build(MakePowerGraphModel(), records, {}, {});
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_EQ(ArchiveJson(streamed), batch->ToJsonString(2));
}

// Satellite regression: a socket write to a peer that already closed must
// surface as a Status, not kill the process with SIGPIPE. The write path
// uses MSG_NOSIGNAL (SO_NOSIGPIPE where that is the spelling), so this
// test passing at all — rather than the binary dying — is the assertion.
TEST(SocketSigpipeTest, WriteToClosedPeerFailsGracefully) {
  auto listener = TcpListener::Bind("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  auto client = TcpConnect("127.0.0.1", listener->port(), 1000);
  ASSERT_TRUE(client.ok()) << client.status();
  auto accepted = listener->Accept(1000);
  ASSERT_TRUE(accepted.ok()) << accepted.status();
  ASSERT_TRUE(accepted->valid());
  accepted->Close();  // peer gone; the client does not know yet

  ASSERT_TRUE(client->SetTimeouts(500, 500).ok());
  std::string chunk(16 * 1024, 'x');
  Status last = Status::OK();
  // The first writes may land in kernel buffers; keep pushing until the
  // broken pipe surfaces.
  for (int i = 0; i < 256 && last.ok(); ++i) {
    last = client->WriteAll(chunk);
  }
  EXPECT_FALSE(last.ok());
}

}  // namespace
}  // namespace granula::core
