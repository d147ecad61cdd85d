// Microbenchmark for the `granula serve` daemon (DESIGN.md "Serving
// archives"): concurrent HTTP readers over the packed baseline sweep.
//
//   build/bench/micro_serve [--benchmark_filter=...]
//
// The fixture copies examples/baseline_sweep into a temp repository and
// packs it to GBA, then serves it from a loopback HttpServer. Two server
// configurations run back to back, one server at a time:
//   hot  — the default shared subtree LRU, so repeated fetches of one
//          subtree decode once and then hit the cache;
//   cold — cache capacity 0, so every request re-opens and re-decodes the
//          packed body.
//
// Acceptance point (read the ratio off BENCH_serve.json):
//   - BM_ServeSubtreeHot >= 2x the throughput of BM_ServeSubtreeCold at
//     the same thread count: the shared LRU, not the client, is what makes
//     hot subtree serving cheap.

#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <string>

#include <benchmark/benchmark.h>

#include "common/socket.h"
#include "granula/archive/repository.h"
#include "granula/serve/server.h"
#include "granula/serve/service.h"

namespace granula::serve {
namespace {

using core::ArchiveRepository;

#ifndef GRANULA_BASELINE_SWEEP_DIR
#define GRANULA_BASELINE_SWEEP_DIR "examples/baseline_sweep"
#endif

constexpr const char* kArchive = "giraph-pagerank-uniform-500-2000-n4";
constexpr const char* kSubtreeTarget =
    "/archives/giraph-pagerank-uniform-500-2000-n4/subtree/GiraphJob/"
    "ProcessGraph";

// Copies the committed baseline sweep into a temp dir and packs every
// archive to GBA, so the cold path below measures binary decode, not JSON
// parsing.
const std::string& PackedRepoDir() {
  static const std::string* dir = [] {
    namespace fs = std::filesystem;
    auto* path = new std::string(
        (fs::temp_directory_path() / "granula_bench_serve").string());
    std::error_code ec;
    fs::remove_all(*path, ec);
    fs::create_directories(*path);
    for (const auto& file : fs::directory_iterator(GRANULA_BASELINE_SWEEP_DIR)) {
      fs::copy_file(file.path(), fs::path(*path) / file.path().filename(),
                    fs::copy_options::overwrite_existing);
    }
    ArchiveRepository repo(*path);
    auto entries = repo.List();
    if (!entries.ok()) std::abort();
    for (const auto& entry : *entries) {
      auto archive = repo.Load(entry.name);
      if (!archive.ok()) std::abort();
      if (!repo.Save(*archive, entry.name).ok()) std::abort();
    }
    return path;
  }();
  return *dir;
}

// Runs at most one server at a time and switches configuration on demand.
constexpr int kMaxClientThreads = 4;
constexpr int kMinWorkers = kMaxClientThreads + 1;

class ServerManager {
 public:
  enum class Mode { kNone, kHot, kCold };

  int Port(Mode mode) {
    std::lock_guard<std::mutex> lock(mu_);
    if (mode != mode_) {
      StopLocked();
      repo_ = std::make_unique<ArchiveRepository>(PackedRepoDir());
      ServiceOptions service_options;
      if (mode == Mode::kCold) {
        // Cold really means cold: no decoded-subtree LRU and no
        // serialized-response LRU, so every request pays the full
        // open + decode + serialize path.
        repo_->set_cache_capacity(0);
        service_options.response_cache_capacity = 0;
      }
      service_ = std::make_unique<ArchiveService>(repo_.get(),
                                                  service_options);
      // A connection thread stays parked on its keep-alive connection, so
      // the daemon needs more threads than the benchmark has clients.
      ServerOptions options;
      options.port = 0;
      options.threads = kMinWorkers;
      server_ = std::make_unique<HttpServer>(service_.get(), options);
      if (!server_->Start().ok()) std::abort();
      mode_ = mode;
    }
    return server_->port();
  }

  ~ServerManager() { StopLocked(); }

 private:
  void StopLocked() {
    if (server_ != nullptr) server_->Stop();
    server_.reset();
    service_.reset();
    repo_.reset();
    mode_ = Mode::kNone;
  }

  std::mutex mu_;
  Mode mode_ = Mode::kNone;
  std::unique_ptr<ArchiveRepository> repo_;
  std::unique_ptr<ArchiveService> service_;
  std::unique_ptr<HttpServer> server_;
};

int ServerPort(ServerManager::Mode mode) {
  static ServerManager* manager = new ServerManager();
  return manager->Port(mode);
}

// One keep-alive connection per benchmark thread, re-dialed when the
// server (and therefore the port) changes between benchmarks.
struct Conn {
  TcpSocket socket;
  int port = -1;
};

thread_local Conn t_conn;

// Sends one GET and reads one Content-Length-framed response; returns the
// status line + headers + body. Aborts on protocol trouble: a benchmark
// that silently drops requests measures nothing.
std::string RoundTrip(int port, const std::string& target,
                      const std::string& extra_header = "") {
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (t_conn.port != port || !t_conn.socket.valid()) {
      auto socket = TcpConnect("127.0.0.1", port, 2000);
      if (!socket.ok()) std::abort();
      if (!socket->SetTimeouts(5000, 5000).ok()) std::abort();
      t_conn.socket = std::move(*socket);
      t_conn.port = port;
    }
    std::string request = "GET " + target + " HTTP/1.1\r\n";
    if (!extra_header.empty()) request += extra_header + "\r\n";
    request += "\r\n";
    if (!t_conn.socket.WriteAll(request).ok()) {
      t_conn.port = -1;  // stale keep-alive; re-dial once
      continue;
    }
    std::string buffer;
    size_t header_end;
    while ((header_end = buffer.find("\r\n\r\n")) == std::string::npos) {
      if (t_conn.socket.Read(buffer) != TcpSocket::ReadOutcome::kData) break;
    }
    if (header_end == std::string::npos) {
      t_conn.port = -1;
      continue;
    }
    size_t body_len = 0;
    const std::string marker = "Content-Length: ";
    size_t pos = buffer.find(marker);
    if (pos != std::string::npos && pos < header_end) {
      body_len = static_cast<size_t>(
          std::atoll(buffer.c_str() + pos + marker.size()));
    }
    while (buffer.size() < header_end + 4 + body_len) {
      if (t_conn.socket.Read(buffer) != TcpSocket::ReadOutcome::kData) {
        std::abort();
      }
    }
    return buffer;
  }
  std::abort();
}

// ---------------------------------------------------------- benchmarks ----

// Index-only filtered listing: no archive body is ever opened.
void BM_ServeList(benchmark::State& state) {
  const int port = ServerPort(ServerManager::Mode::kHot);
  const uint64_t body_reads_before = ArchiveRepository::BodyReadCount();
  for (auto _ : state) {
    std::string response =
        RoundTrip(port, "/archives?platform=giraph&algorithm=PageRank");
    benchmark::DoNotOptimize(response.data());
  }
  if (state.thread_index() == 0 &&
      ArchiveRepository::BodyReadCount() != body_reads_before) {
    state.SkipWithError("list queries opened archive bodies");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeList)->Threads(1)->Threads(4)->UseRealTime();

// Revalidation: the client already holds the current entity, the server
// answers 304 from the index-derived tag alone.
void BM_ServeEtag304(benchmark::State& state) {
  const int port = ServerPort(ServerManager::Mode::kHot);
  std::string primed = RoundTrip(port, kSubtreeTarget);
  const std::string marker = "ETag: ";
  size_t pos = primed.find(marker);
  if (pos == std::string::npos) std::abort();
  const std::string tag =
      primed.substr(pos + marker.size(),
                    primed.find('\r', pos) - pos - marker.size());
  for (auto _ : state) {
    std::string response =
        RoundTrip(port, kSubtreeTarget, "If-None-Match: " + tag);
    if (response.compare(0, 12, "HTTP/1.1 304") != 0) std::abort();
    benchmark::DoNotOptimize(response.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeEtag304)->Threads(1)->Threads(4)->UseRealTime();

// Hot subtree: decoded once into the shared LRU, every later request from
// every worker reuses that shared_ptr.
void BM_ServeSubtreeHot(benchmark::State& state) {
  const int port = ServerPort(ServerManager::Mode::kHot);
  for (auto _ : state) {
    std::string response = RoundTrip(port, kSubtreeTarget);
    benchmark::DoNotOptimize(response.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeSubtreeHot)->Threads(1)->Threads(4)->UseRealTime();

// Cold subtree: cache capacity 0, every request re-opens the packed file
// and re-decodes the 155-operation ProcessGraph subtree.
void BM_ServeSubtreeCold(benchmark::State& state) {
  const int port = ServerPort(ServerManager::Mode::kCold);
  for (auto _ : state) {
    std::string response = RoundTrip(port, kSubtreeTarget);
    benchmark::DoNotOptimize(response.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeSubtreeCold)->Threads(1)->Threads(4)->UseRealTime();

}  // namespace
}  // namespace granula::serve

BENCHMARK_MAIN();
