// End-to-end tests for the embedded HTTP archive daemon: real sockets
// against a real repository. The server runs its own connection threads,
// so the shared host ThreadPool stays free for compute while it is up.

#include "granula/serve/server.h"

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/socket.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "granula/archive/archiver.h"
#include "granula/archive/gba.h"
#include "granula/archive/repository.h"
#include "granula/archive/view.h"
#include "granula/model/performance_model.h"
#include "granula/monitor/job_logger.h"
#include "granula/serve/service.h"

namespace granula::serve {
namespace {

using core::ArchiveRepository;
using core::PerformanceArchive;

PerformanceArchive MakeArchive(const std::string& platform,
                               const std::string& algorithm, double seconds,
                               int supersteps = 4) {
  SimTime now;
  core::JobLogger logger([&now] { return now; });
  core::OpId root =
      logger.StartOperation(core::kNoOp, "Job", "job", "Root", "Root");
  for (int s = 0; s < supersteps; ++s) {
    core::OpId step = logger.StartOperation(
        root, "Master", "master", "Superstep", "Superstep-" +
                                                   std::to_string(s));
    logger.AddInfo(step, "Items", Json(int64_t{s * 10}));
    now += SimTime::Seconds(seconds / supersteps);
    logger.EndOperation(step);
  }
  now = SimTime::Seconds(seconds);
  logger.EndOperation(root);
  core::PerformanceModel model("m");
  (void)model.AddRoot("Job", "Root");
  (void)model.AddOperation("Master", "Superstep", "Job", "Root");
  auto archive = core::Archiver().Build(
      model, logger.records(), {},
      {{"platform", platform}, {"algorithm", algorithm}});
  EXPECT_TRUE(archive.ok());
  return std::move(archive).value();
}

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/serve_" + name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

int64_t g_fake_now = 1000;
int64_t FakeNow() { return g_fake_now; }

class WallClockGuard {
 public:
  ~WallClockGuard() { ArchiveRepository::SetWallClockForTest(nullptr); }
};

// ----------------------------------------------------- HTTP client ------

struct ClientResponse {
  int status = 0;
  std::map<std::string, std::string> headers;  // lowercased names
  std::string body;
};

// Reads one full response off `socket` (Content-Length framing, matching
// what the server emits).
Result<ClientResponse> ReadResponse(TcpSocket& socket) {
  std::string buffer;
  size_t header_end = std::string::npos;
  while ((header_end = buffer.find("\r\n\r\n")) == std::string::npos) {
    auto outcome = socket.Read(buffer);
    if (outcome != TcpSocket::ReadOutcome::kData) {
      return Status::IoError("connection closed before response headers");
    }
  }
  ClientResponse response;
  const std::string head = buffer.substr(0, header_end);
  const std::vector<std::string> lines = StrSplit(head, '\n');
  if (lines.empty() || lines[0].rfind("HTTP/1.1 ", 0) != 0) {
    return Status::Corruption("bad status line: " + head);
  }
  response.status = std::atoi(lines[0].c_str() + 9);
  for (size_t i = 1; i < lines.size(); ++i) {
    std::string_view line = StrTrim(lines[i]);
    size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    std::string name(line.substr(0, colon));
    for (char& c : name) c = static_cast<char>(std::tolower(c));
    response.headers[name] = std::string(StrTrim(line.substr(colon + 1)));
  }
  size_t body_len = 0;
  auto it = response.headers.find("content-length");
  if (it != response.headers.end()) {
    body_len = static_cast<size_t>(std::atoll(it->second.c_str()));
  }
  const size_t body_start = header_end + 4;
  while (buffer.size() < body_start + body_len) {
    auto outcome = socket.Read(buffer);
    if (outcome != TcpSocket::ReadOutcome::kData) {
      return Status::IoError("connection closed mid-body");
    }
  }
  response.body = buffer.substr(body_start, body_len);
  return response;
}

Result<ClientResponse> Fetch(int port, const std::string& target,
                             const std::vector<std::string>& headers = {},
                             const std::string& method = "GET") {
  GRANULA_ASSIGN_OR_RETURN(TcpSocket socket,
                           TcpConnect("127.0.0.1", port, 2000));
  GRANULA_RETURN_IF_ERROR(socket.SetTimeouts(5000, 5000));
  std::string request = method + " " + target + " HTTP/1.1\r\n";
  for (const std::string& header : headers) request += header + "\r\n";
  request += "Connection: close\r\n\r\n";
  GRANULA_RETURN_IF_ERROR(socket.WriteAll(request));
  return ReadResponse(socket);
}

Json MustParse(const std::string& text) {
  auto parsed = Json::Parse(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status() << " in: " << text;
  return parsed.ok() ? *parsed : Json();
}

// ----------------------------------------------------- fixture ----------

// One repository + running server per fixture instance.
class ServeTest : public testing::Test {
 protected:
  void StartServer(const std::string& dir_name, int timeout_ms = 5000,
                   int threads = 0) {
    ArchiveRepository::SetWallClockForTest(&FakeNow);
    g_fake_now = 1000;
    repo_ = std::make_unique<ArchiveRepository>(FreshDir(dir_name));
    ASSERT_TRUE(repo_->Save(MakeArchive("Giraph", "BFS", 10), "g-bfs").ok());
    g_fake_now = 2000;
    ASSERT_TRUE(
        repo_->Save(MakeArchive("Giraph", "PageRank", 20), "g-pr").ok());
    g_fake_now = 3000;
    ASSERT_TRUE(repo_->Save(MakeArchive("Pgxd", "BFS", 30), "p-bfs").ok());

    service_ = std::make_unique<ArchiveService>(repo_.get(),
                                                ServiceOptions{});
    ServerOptions options;
    options.port = 0;  // free port
    options.timeout_ms = timeout_ms;
    options.threads = threads;
    server_ = std::make_unique<HttpServer>(service_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    ArchiveRepository::SetWallClockForTest(nullptr);
    ArchiveRepository::SetIoFaultHookForTest(nullptr);
  }

  int port() const { return server_->port(); }

  std::unique_ptr<ArchiveRepository> repo_;
  std::unique_ptr<ArchiveService> service_;
  std::unique_ptr<HttpServer> server_;
};

// ----------------------------------------------------- tests ------------

TEST_F(ServeTest, ListServedFromIndexWithoutBodyReads) {
  StartServer("list");
  const uint64_t before = ArchiveRepository::BodyReadCount();

  auto all = Fetch(port(), "/archives");
  ASSERT_TRUE(all.ok()) << all.status();
  EXPECT_EQ(all->status, 200);
  Json body = MustParse(all->body);
  EXPECT_EQ(body.GetInt("count"), 3);
  ASSERT_EQ(body.Find("archives")->size(), 3u);
  EXPECT_EQ(body.Find("archives")->AsArray()[0].GetString("name"), "g-bfs");

  auto filtered = Fetch(port(), "/archives?platform=Giraph&algorithm=BFS");
  ASSERT_TRUE(filtered.ok());
  EXPECT_EQ(filtered->status, 200);
  EXPECT_EQ(MustParse(filtered->body).GetInt("count"), 1);

  auto window = Fetch(port(), "/archives?since=1500&until=2500");
  ASSERT_TRUE(window.ok());
  Json window_body = MustParse(window->body);
  EXPECT_EQ(window_body.GetInt("count"), 1);
  EXPECT_EQ(window_body.Find("archives")->AsArray()[0].GetString("name"),
            "g-pr");

  EXPECT_EQ(ArchiveRepository::BodyReadCount(), before)
      << "GET /archives must answer from the index alone";
}

TEST_F(ServeTest, BadListQueriesAre400) {
  StartServer("badquery");
  auto unknown = Fetch(port(), "/archives?nonsense=1");
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown->status, 400);
  EXPECT_NE(MustParse(unknown->body)
                .Find("error")
                ->GetString("message")
                .find("nonsense"),
            std::string::npos);

  auto bad_since = Fetch(port(), "/archives?since=yesterday");
  ASSERT_TRUE(bad_since.ok());
  EXPECT_EQ(bad_since->status, 400);

  auto inverted = Fetch(port(), "/archives?since=2000&until=1000");
  ASSERT_TRUE(inverted.ok());
  EXPECT_EQ(inverted->status, 400);
  EXPECT_EQ(MustParse(inverted->body).Find("error")->GetString("code"),
            "invalid_argument");
}

TEST_F(ServeTest, ArchiveFetchFullAndShallow) {
  StartServer("archive");
  auto full = Fetch(port(), "/archives/g-bfs");
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_EQ(full->status, 200);
  auto expected = repo_->Load("g-bfs");
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(full->body, expected->ToJsonString(2));

  auto shallow = Fetch(port(), "/archives/g-bfs?depth=1");
  ASSERT_TRUE(shallow.ok());
  EXPECT_EQ(shallow->status, 200);
  Json tree = MustParse(shallow->body);
  const Json* root = tree.Find("operation");
  if (root == nullptr) root = &tree;  // tolerate either nesting
  EXPECT_LT(shallow->body.size(), full->body.size())
      << "depth=1 must cut the tree";

  auto bad_depth = Fetch(port(), "/archives/g-bfs?depth=zero");
  ASSERT_TRUE(bad_depth.ok());
  EXPECT_EQ(bad_depth->status, 400);

  auto missing = Fetch(port(), "/archives/no-such-archive");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);
  EXPECT_EQ(MustParse(missing->body).Find("error")->GetString("code"),
            "not_found");
}

// Regression: `granula bench`/`run --save-repo` save with default options,
// and a repository written that way used to serve the full tree for any
// ?depth=. The archive here is saved by a second repository object that
// never touches a write option.
TEST_F(ServeTest, DepthCutsAnArchiveSavedWithDefaultOptions) {
  StartServer("default_depth");
  ArchiveRepository writer(repo_->directory());
  ASSERT_TRUE(writer.Save(MakeArchive("Giraph", "BFS", 10), "deep").ok());

  auto full = Fetch(port(), "/archives/deep");
  auto shallow = Fetch(port(), "/archives/deep?depth=1");
  ASSERT_TRUE(full.ok() && shallow.ok());
  ASSERT_EQ(full->status, 200);
  ASSERT_EQ(shallow->status, 200);
  EXPECT_GT(MustParse(full->body).Find("root")->Find("children")->size(), 0u);
  EXPECT_EQ(MustParse(shallow->body).Find("root")->Find("children")->size(),
            0u)
      << "depth=1 must cut the tree below the root";
  auto expected = writer.Load("deep", 1);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(shallow->body, expected->ToJsonString(2));
}

TEST_F(ServeTest, SubtreeFetchIsDecodedAndSerializedOncePerProcess) {
  StartServer("subtree");
  auto first = Fetch(port(), "/archives/g-bfs/subtree/Root/Superstep-1");
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->status, 200);
  Json op = MustParse(first->body);
  EXPECT_EQ(op.GetString("mission_id"), "Superstep-1");

  // A repeat fetch is answered from the serialized-response LRU: no body
  // read, no second decode, byte-identical bytes.
  const uint64_t body_reads = ArchiveRepository::BodyReadCount();
  auto second = Fetch(port(), "/archives/g-bfs/subtree/Root/Superstep-1");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->status, 200);
  EXPECT_EQ(second->body, first->body);
  EXPECT_EQ(ArchiveRepository::BodyReadCount(), body_reads)
      << "the second fetch must be served from cache, not from disk";

  // Asking for the SAME subtree in the other format misses the response
  // cache (different bytes) but hits the repository's shared decoded-
  // subtree LRU: still no disk read.
  const auto repo_before = repo_->cache_stats();
  auto gba = Fetch(port(), "/archives/g-bfs/subtree/Root/Superstep-1",
                   {"Accept: application/x-granula-gba"});
  ASSERT_TRUE(gba.ok());
  EXPECT_EQ(gba->status, 200);
  EXPECT_EQ(ArchiveRepository::BodyReadCount(), body_reads);
  EXPECT_EQ(repo_->cache_stats().hits, repo_before.hits + 1);

  auto stats = Fetch(port(), "/stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(MustParse(stats->body).Find("response_cache")->GetInt("hits"), 1);

  auto missing = Fetch(port(), "/archives/g-bfs/subtree/Root/NoSuchStep");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);
}

TEST_F(ServeTest, GbaContentNegotiation) {
  StartServer("gba");
  auto subtree = repo_->FetchSubtree("g-bfs", "Root/Superstep-2");
  ASSERT_TRUE(subtree.ok());
  const std::string expected = core::EncodeGbaSubtree(**subtree);

  auto via_accept =
      Fetch(port(), "/archives/g-bfs/subtree/Root/Superstep-2",
            {"Accept: application/x-granula-gba"});
  ASSERT_TRUE(via_accept.ok()) << via_accept.status();
  EXPECT_EQ(via_accept->status, 200);
  EXPECT_EQ(via_accept->headers.at("content-type"),
            "application/x-granula-gba");
  EXPECT_EQ(via_accept->body, expected)
      << "negotiated GBA bytes must match EncodeGbaSubtree exactly";

  auto via_query =
      Fetch(port(), "/archives/g-bfs/subtree/Root/Superstep-2?format=gba");
  ASSERT_TRUE(via_query.ok());
  EXPECT_EQ(via_query->body, expected);

  // The bytes are a standalone GBA file.
  auto view = core::ArchiveView::Open(via_query->body);
  ASSERT_TRUE(view.ok()) << view.status();
  auto decoded = view->Decode();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->root->ToJson().Dump(0), (*subtree)->ToJson().Dump(0));
}

TEST_F(ServeTest, EtagRoundTripAnd304) {
  StartServer("etag");
  auto first = Fetch(port(), "/archives/g-bfs");
  ASSERT_TRUE(first.ok());
  const std::string tag = first->headers.at("etag");
  ASSERT_FALSE(tag.empty());

  auto revalidated =
      Fetch(port(), "/archives/g-bfs", {"If-None-Match: " + tag});
  ASSERT_TRUE(revalidated.ok());
  EXPECT_EQ(revalidated->status, 304);
  EXPECT_TRUE(revalidated->body.empty());
  EXPECT_EQ(revalidated->headers.at("etag"), tag);

  auto stale = Fetch(port(), "/archives/g-bfs",
                     {"If-None-Match: \"gdeadbeefdeadbeef\""});
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale->status, 200);

  // Lists revalidate too, and their tag covers the whole answer.
  auto list = Fetch(port(), "/archives");
  ASSERT_TRUE(list.ok());
  const std::string list_tag = list->headers.at("etag");
  auto list_304 = Fetch(port(), "/archives",
                        {"If-None-Match: " + list_tag});
  ASSERT_TRUE(list_304.ok());
  EXPECT_EQ(list_304->status, 304);
}

TEST_F(ServeTest, SaveOverwriteInvalidatesEtagAndCache) {
  StartServer("overwrite");
  WallClockGuard guard;

  // Prime: subtree response + its validator + a cached subtree.
  auto subtree = Fetch(port(), "/archives/g-bfs/subtree/Root/Superstep-1");
  ASSERT_TRUE(subtree.ok());
  const std::string tag = subtree->headers.at("etag");
  auto fresh = Fetch(port(), "/archives/g-bfs/subtree/Root/Superstep-1",
                     {"If-None-Match: " + tag});
  ASSERT_TRUE(fresh.ok());
  ASSERT_EQ(fresh->status, 304);
  const auto stats_before = repo_->cache_stats();

  // Overwrite the archive at a later wall-clock time. (Save() does not
  // touch the host pool, so doing it while the server runs is safe.)
  g_fake_now = 9000;
  PerformanceArchive updated = MakeArchive("Giraph", "BFS", 99);
  ASSERT_TRUE(repo_->Save(updated, "g-bfs").ok());

  // The old validator must stop matching: a conditional GET now returns
  // 200 with a NEW tag and the fresh content...
  auto after = Fetch(port(), "/archives/g-bfs/subtree/Root/Superstep-1",
                     {"If-None-Match: " + tag});
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->status, 200) << "old ETag validated stale content";
  EXPECT_NE(after->headers.at("etag"), tag);

  // ...and the LRU entry for the old body must be gone: the re-fetch was
  // a miss, not a stale hit.
  const auto stats_after = repo_->cache_stats();
  EXPECT_EQ(stats_after.misses, stats_before.misses + 1)
      << "Save() left a stale subtree in the cache";
  Json op = MustParse(after->body);
  EXPECT_EQ(op.Find("infos")->Find("Items")->GetInt("value"), 10);
}

TEST_F(ServeTest, FindingsAndQuarantineEndpoints) {
  StartServer("findings");
  auto findings = Fetch(port(), "/archives/g-pr/findings");
  ASSERT_TRUE(findings.ok()) << findings.status();
  EXPECT_EQ(findings->status, 200);
  Json body = MustParse(findings->body);
  EXPECT_EQ(body.GetString("archive"), "g-pr");
  ASSERT_NE(body.Find("findings"), nullptr);
  // A dominant single phase exists by construction; every finding row
  // carries the full shape.
  if (body.Find("findings")->size() > 0) {
    const Json& first = body.Find("findings")->AsArray()[0];
    EXPECT_FALSE(first.GetString("kind").empty());
    EXPECT_FALSE(first.GetString("severity").empty());
  }

  auto quarantine = Fetch(port(), "/archives/g-pr/quarantine");
  ASSERT_TRUE(quarantine.ok());
  EXPECT_EQ(quarantine->status, 200);
  Json q = MustParse(quarantine->body);
  EXPECT_TRUE(q.GetBool("clean"));

  auto missing = Fetch(port(), "/archives/ghost/findings");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);
}

TEST_F(ServeTest, StatsEndpointAndMethodHandling) {
  StartServer("stats");
  ASSERT_TRUE(Fetch(port(), "/archives").ok());
  ASSERT_TRUE(
      Fetch(port(), "/archives/g-bfs/subtree/Root/Superstep-0").ok());
  ASSERT_TRUE(
      Fetch(port(), "/archives/g-bfs/subtree/Root/Superstep-0").ok());

  auto stats = Fetch(port(), "/stats");
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->status, 200);
  Json body = MustParse(stats->body);
  EXPECT_GE(body.Find("requests")->GetInt("total"), 3);
  EXPECT_GE(body.Find("response_cache")->GetInt("hits"), 1);
  EXPECT_GE(body.Find("transport")->GetInt("connections"), 3);
  EXPECT_GE(body.Find("latency")->GetInt("count"), 3);
  EXPECT_GE(body.GetInt("body_reads"), 1);

  // HEAD: headers + Content-Length but no body.
  auto head_conn = TcpConnect("127.0.0.1", port(), 2000);
  ASSERT_TRUE(head_conn.ok()) << head_conn.status();
  TcpSocket head_socket = std::move(*head_conn);
  ASSERT_TRUE(head_socket.SetTimeouts(5000, 5000).ok());
  ASSERT_TRUE(head_socket
                  .WriteAll("HEAD /archives HTTP/1.1\r\n"
                            "Connection: close\r\n\r\n")
                  .ok());
  std::string head_raw;
  while (head_socket.Read(head_raw) == TcpSocket::ReadOutcome::kData) {
  }
  EXPECT_NE(head_raw.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(head_raw.find("Content-Length: "), std::string::npos);
  EXPECT_EQ(head_raw.find("\"archives\""), std::string::npos)
      << "HEAD must not carry a body";

  // Writes are refused.
  auto post = Fetch(port(), "/archives", {}, "POST");
  ASSERT_TRUE(post.ok());
  EXPECT_EQ(post->status, 405);
  EXPECT_EQ(post->headers.at("allow"), "GET, HEAD");

  auto root = Fetch(port(), "/");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->status, 200);
  auto nowhere = Fetch(port(), "/nowhere");
  ASSERT_TRUE(nowhere.ok());
  EXPECT_EQ(nowhere->status, 404);
}

TEST_F(ServeTest, SlowClientGets408AndServerKeepsServing) {
  StartServer("slow", /*timeout_ms=*/300);
  auto slow_conn = TcpConnect("127.0.0.1", port(), 2000);
  ASSERT_TRUE(slow_conn.ok()) << slow_conn.status();
  TcpSocket slow = std::move(*slow_conn);
  ASSERT_TRUE(slow.SetTimeouts(5000, 5000).ok());
  // Half a request, then silence: the server must cut us off with a 408
  // instead of parking a worker forever.
  ASSERT_TRUE(slow.WriteAll("GET /archives HT").ok());
  auto response = ReadResponse(slow);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status, 408);

  // The daemon is still healthy for the next client.
  auto healthy = Fetch(port(), "/archives");
  ASSERT_TRUE(healthy.ok());
  EXPECT_EQ(healthy->status, 200);

  auto stats = Fetch(port(), "/stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(MustParse(stats->body).Find("transport")->GetInt("timeouts"), 1);
}

TEST_F(ServeTest, FullAcceptQueueGets503) {
  StartServer("full_queue", /*timeout_ms=*/30000, /*threads=*/1);
  // A keep-alive client parks the only connection thread...
  auto parked_conn = TcpConnect("127.0.0.1", port(), 2000);
  ASSERT_TRUE(parked_conn.ok()) << parked_conn.status();
  TcpSocket parked = std::move(*parked_conn);
  ASSERT_TRUE(parked.SetTimeouts(5000, 5000).ok());
  ASSERT_TRUE(parked.WriteAll("GET /archives HTTP/1.1\r\n\r\n").ok());
  auto first = ReadResponse(parked);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->status, 200);

  // ...so the next kAcceptQueue connections wait in the queue...
  std::vector<TcpSocket> queued;
  for (size_t i = 0; i < HttpServer::kAcceptQueue; ++i) {
    auto conn = TcpConnect("127.0.0.1", port(), 2000);
    ASSERT_TRUE(conn.ok()) << conn.status();
    queued.push_back(std::move(*conn));
  }

  // ...and the one after them is turned away.
  auto extra_conn = TcpConnect("127.0.0.1", port(), 2000);
  ASSERT_TRUE(extra_conn.ok()) << extra_conn.status();
  TcpSocket extra = std::move(*extra_conn);
  ASSERT_TRUE(extra.SetTimeouts(5000, 5000).ok());
  auto busy = ReadResponse(extra);
  ASSERT_TRUE(busy.ok()) << busy.status();
  EXPECT_EQ(busy->status, 503);
  EXPECT_EQ(service_->transport().rejected.load(), 1u);
}

TEST_F(ServeTest, HostPoolRunsComputeWhileServing) {
  if (ThreadPool::Global().num_threads() == 1) {
    GTEST_SKIP() << "the host pool has one thread";
  }
  StartServer("pool_free");
  // Serve one request first: a server whose connection loops ran as a
  // pool job would hold the pool by now.
  auto served = Fetch(port(), "/archives");
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_EQ(served->status, 200);
  std::mutex mu;
  std::set<std::thread::id> ran_on;
  ThreadPool::Global().ParallelFor(
      0, 64, 1, [&](uint64_t, uint64_t, uint64_t) {
        {
          std::lock_guard<std::mutex> lock(mu);
          ran_on.insert(std::this_thread::get_id());
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      });
  EXPECT_GT(ran_on.size(), 1u)
      << "a running server must not push compute onto one thread";
}

TEST_F(ServeTest, FaultedRepositoryReadsAre500NotACrash) {
  StartServer("faulted");
  // Fail every archive body read as a device error would. The index scan
  // is untouched, so the daemon still knows the archive exists — the
  // decode itself is what breaks.
  ArchiveRepository::SetIoFaultHookForTest(
      [](const char* stage, const std::string&) {
        return std::string_view(stage) == "read"
                   ? Status::IoError("injected device error")
                   : Status::OK();
      });
  auto faulted = Fetch(port(), "/archives/g-bfs/subtree/Root/Superstep-3");
  ASSERT_TRUE(faulted.ok()) << faulted.status();
  EXPECT_EQ(faulted->status, 500);
  EXPECT_EQ(MustParse(faulted->body).Find("error")->GetString("code"),
            "io_error");

  // Heal the disk: the daemon recovers without a restart.
  ArchiveRepository::SetIoFaultHookForTest(nullptr);
  auto healed = Fetch(port(), "/archives/g-bfs/subtree/Root/Superstep-3");
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(healed->status, 200);

  auto stats = Fetch(port(), "/stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(MustParse(stats->body)
                .Find("requests")
                ->GetInt("server_errors"),
            1);
}

TEST_F(ServeTest, ConcurrentReadersAllSucceed) {
  StartServer("concurrent");
  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 20;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const std::string targets[] = {
          "/archives",
          "/archives/g-bfs/subtree/Root/Superstep-1",
          "/archives/g-pr/subtree/Root/Superstep-2",
          "/archives?platform=Giraph",
          "/stats",
      };
      for (int i = 0; i < kRequestsPerClient; ++i) {
        auto response = Fetch(port(), targets[(c + i) % 5]);
        if (!response.ok() || response->status != 200) ++failures;
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);

  auto stats = Fetch(port(), "/stats");
  ASSERT_TRUE(stats.ok());
  Json body = MustParse(stats->body);
  EXPECT_GE(body.Find("requests")->GetInt("ok"),
            kClients * kRequestsPerClient);
  EXPECT_GE(body.Find("response_cache")->GetInt("hits"), 1)
      << "hot subtrees must be served from the shared cache";
}

TEST_F(ServeTest, GracefulDrainClosesIdleKeepAliveClients) {
  StartServer("drain");
  // A keep-alive client parked between requests...
  auto idle_conn = TcpConnect("127.0.0.1", port(), 2000);
  ASSERT_TRUE(idle_conn.ok()) << idle_conn.status();
  TcpSocket idle = std::move(*idle_conn);
  ASSERT_TRUE(idle.SetTimeouts(5000, 5000).ok());
  ASSERT_TRUE(idle.WriteAll("GET /archives HTTP/1.1\r\n\r\n").ok());
  auto first = ReadResponse(idle);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->status, 200);

  // ...must not wedge Stop(): the drain shuts the read side down, the
  // worker sees EOF, and Stop() returns.
  server_->Stop();
  EXPECT_FALSE(server_->running());

  // The listener is gone.
  auto after = TcpConnect("127.0.0.1", port(), 200);
  if (after.ok()) {
    // A TCP backlog race can accept the connection; it must close without
    // serving.
    std::string leftovers;
    ASSERT_TRUE(after->SetTimeouts(1000, 1000).ok());
    (void)after->WriteAll("GET /archives HTTP/1.1\r\n\r\n");
    EXPECT_NE(after->Read(leftovers), TcpSocket::ReadOutcome::kData);
  }
}

}  // namespace
}  // namespace granula::serve
