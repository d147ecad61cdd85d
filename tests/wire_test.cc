// The fleet transport's bytes, captured on raw sockets: the GET head a
// `--source=NAME=tcp://...` follower sends, the POST head a `--webhook`
// sends, and the feed's response head and chunk frames. The follower and
// the webhook are driven through the CLI and the feed through its
// service, so the capture does not depend on where those clients live.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/socket.h"
#include "granula/serve/feed.h"
#include "granula/serve/server.h"
#include "granula_commands.h"

namespace granula {
namespace {

std::string FreshDir(const std::string& name) {
  std::string path = testing::TempDir() + "/wire_" + name;
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  std::filesystem::create_directories(path);
  return path;
}

// Runs `granula fleet` with `flags` against an occupied --port: the specs
// are parsed and the supervisor starts, the bind fails, and the drain
// polls every source once more and flushes every sink before exit 1.
int RunFleetUntilBindFails(const std::string& name,
                           const std::vector<std::string>& flags) {
  auto occupied = TcpListener::Bind("127.0.0.1", 0);
  EXPECT_TRUE(occupied.ok()) << occupied.status();
  if (!occupied.ok()) return -1;
  std::vector<std::string> args = {
      "fleet", "--root=" + FreshDir(name),
      "--port=" + std::to_string(occupied->port())};
  args.insert(args.end(), flags.begin(), flags.end());
  std::FILE* out = std::tmpfile();
  std::FILE* err = std::tmpfile();
  const int code = cli::RunGranula(args, out, err);
  std::fclose(out);
  std::fclose(err);
  return code;
}

// Reads from `socket` until `want` bytes arrived, the peer closed, or a
// read timed out.
std::string ReadAtLeast(TcpSocket& socket, size_t want) {
  std::string bytes;
  while (bytes.size() < want &&
         socket.Read(bytes) == TcpSocket::ReadOutcome::kData) {
  }
  return bytes;
}

TEST(WireTest, FollowerSendsOneGetHeadWithItsResumeOffset) {
  auto feed = TcpListener::Bind("127.0.0.1", 0);
  ASSERT_TRUE(feed.ok()) << feed.status();
  const std::string port = std::to_string(feed->port());
  ASSERT_EQ(RunFleetUntilBindFails(
                "follower", {"--source=a=tcp://127.0.0.1:" + port +
                             "/logs/a.jsonl"}),
            cli::kExitFatal);

  // The follower connected while the fleet ran; its head waits in the
  // accept queue.
  auto socket = feed->Accept(2000);
  ASSERT_TRUE(socket.ok() && socket->valid());
  ASSERT_TRUE(socket->SetTimeouts(1000, 1000).ok());
  const std::string expected =
      "GET /logs/a.jsonl HTTP/1.1\r\n"
      "Host: 127.0.0.1\r\n"
      "Range: bytes=0-\r\n"
      "Connection: keep-alive\r\n"
      "\r\n";
  EXPECT_EQ(ReadAtLeast(*socket, expected.size() + 1), expected);
}

// Answers every webhook POST with a 200 and keeps what it received.
class WebhookRecorder {
 public:
  WebhookRecorder() {
    auto listener = TcpListener::Bind("127.0.0.1", 0);
    EXPECT_TRUE(listener.ok()) << listener.status();
    if (listener.ok()) listener_ = std::move(*listener);
    thread_ = std::thread([this] { Loop(); });
  }
  ~WebhookRecorder() { Stop(); }

  int port() const { return listener_.port(); }

  // Stops accepting; the requests received so far, in arrival order.
  const std::vector<std::string>& Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    return requests_;
  }

 private:
  void Loop() {
    while (!stop_.load()) {
      auto socket = listener_.Accept(20);
      if (!socket.ok() || !socket->valid()) continue;
      (void)socket->SetTimeouts(1000, 1000);
      std::string request;
      size_t head_end = std::string::npos;
      while ((head_end = request.find("\r\n\r\n")) == std::string::npos &&
             socket->Read(request) == TcpSocket::ReadOutcome::kData) {
      }
      if (head_end == std::string::npos) continue;
      const std::string marker = "Content-Length: ";
      const size_t at = request.find(marker);
      const size_t body =
          at == std::string::npos
              ? 0
              : std::stoul(request.substr(at + marker.size()));
      while (request.size() < head_end + 4 + body &&
             socket->Read(request) == TcpSocket::ReadOutcome::kData) {
      }
      requests_.push_back(request);
      (void)socket->WriteAll(
          "HTTP/1.1 200 OK\r\nContent-Length: 0\r\nConnection: close"
          "\r\n\r\n");
    }
  }

  TcpListener listener_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::vector<std::string> requests_;
};

TEST(WireTest, WebhookPostsEachAlertWithOneHead) {
  // A source on a dead port with a budget of one failure is lost at its
  // first poll, which raises a critical alert for the webhook.
  int dead_port = 0;
  {
    auto listener = TcpListener::Bind("127.0.0.1", 0);
    ASSERT_TRUE(listener.ok()) << listener.status();
    dead_port = listener->port();
  }
  WebhookRecorder hook;
  ASSERT_EQ(RunFleetUntilBindFails(
                "webhook",
                {"--source=a=tcp://127.0.0.1:" + std::to_string(dead_port),
                 "--reconnect-budget=1", "--alert-retries=1",
                 "--webhook=http://127.0.0.1:" + std::to_string(hook.port()) +
                     "/alerts/in"}),
            cli::kExitFatal);

  const std::vector<std::string>& requests = hook.Stop();
  ASSERT_FALSE(requests.empty());
  for (const std::string& request : requests) {
    const size_t head_end = request.find("\r\n\r\n");
    ASSERT_NE(head_end, std::string::npos) << request;
    const std::string body = request.substr(head_end + 4);
    EXPECT_EQ(request.substr(0, head_end + 4),
              "POST /alerts/in HTTP/1.1\r\n"
              "Host: 127.0.0.1\r\n"
              "Content-Type: application/json\r\n"
              "Content-Length: " +
                  std::to_string(body.size()) +
                  "\r\n"
                  "Connection: close\r\n"
                  "\r\n");
    ASSERT_FALSE(body.empty());
    EXPECT_EQ(body.front(), '{');
    EXPECT_EQ(body.back(), '}');
  }
}

TEST(WireTest, FeedAnswersOneChunkedHeadThenOneFramePerWindow) {
  const std::string log = FreshDir("feed") + "/run.jsonl";
  std::FILE* file = std::fopen(log.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  std::fputs("a\nbb\n", file);
  std::fflush(file);

  serve::LogFeedService service(log, /*poll_interval_ms=*/5);
  serve::HttpServer server(&service, serve::ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto socket = TcpConnect("127.0.0.1", server.port(), 1000);
  ASSERT_TRUE(socket.ok()) << socket.status();
  ASSERT_TRUE(socket->SetTimeouts(2000, 1000).ok());
  ASSERT_TRUE(socket->WriteAll("GET / HTTP/1.1\r\nRange: bytes=2-\r\n\r\n")
                  .ok());

  const std::string head_and_first =
      "HTTP/1.1 200 OK\r\n"
      "Content-Type: application/x-ndjson\r\n"
      "Transfer-Encoding: chunked\r\n"
      "Connection: keep-alive\r\n"
      "\r\n"
      "3\r\nbb\n\r\n";
  EXPECT_EQ(ReadAtLeast(*socket, head_and_first.size()), head_and_first);

  // 20 bytes land later: one more frame, its size in lowercase hex.
  std::fputs("0123456789abcdefghi\n", file);
  std::fclose(file);
  const std::string second = "14\r\n0123456789abcdefghi\n\r\n";
  EXPECT_EQ(ReadAtLeast(*socket, second.size()), second);

  socket->Close();
  server.Stop();
}

}  // namespace
}  // namespace granula
