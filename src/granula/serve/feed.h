#ifndef GRANULA_GRANULA_SERVE_FEED_H_
#define GRANULA_GRANULA_SERVE_FEED_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/socket.h"

namespace granula::serve {

// The sending side of the fleet transport: serves one local JSONL log
// over HTTP to any number of TcpRecordSource followers (`granula feed`).
// A follower sends one GET (any path) whose "Range: bytes=<offset>-"
// header names the resume offset (absent: from the top); the answer is a
// 200 with Transfer-Encoding: chunked whose chunks carry the log's bytes
// from that offset on, following the file like `tail -f`. The request is
// read with ParseHttpRequest, so header names are case-insensitive; a
// malformed request or Range gets a 400 instead of a stream.
//
// Deliberately tiny: one accept thread plus one thread per connection
// (a feed serves a handful of followers, not a fleet — the *daemon* is
// the fan-in point). Never parses the log; bytes go out as they land in
// the file, so a torn trailing line is the reader's problem by contract
// (TcpRecordSource buffers it until its newline arrives).
class LogFeedServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    int port = 0;  // 0 picks a free port; port() reports the real one
    std::string path;            // the JSONL log to serve
    double poll_interval_ms = 5;  // file re-check cadence per connection
    int timeout_ms = 2000;       // per-connection socket deadlines
    int max_connections = 32;    // beyond this, connections are dropped
  };

  // Injectable connection-scoped faults, mirroring sim::FaultInjector's
  // style: pure data decided per accepted connection (0-based index).
  // Tests build the hook from a sim::FaultPlan's net specs.
  struct NetFault {
    bool refuse = false;              // close immediately after accept
    uint64_t reset_after_bytes = 0;   // abort after this much payload (>0)
    double stall_ms = 0;              // sleep before the first byte
  };
  using NetFaultHook = std::function<NetFault(uint64_t connection)>;

  explicit LogFeedServer(Options options) : options_(std::move(options)) {}
  ~LogFeedServer() { Stop(); }

  LogFeedServer(const LogFeedServer&) = delete;
  LogFeedServer& operator=(const LogFeedServer&) = delete;

  // Must be set before Start(); the hook runs on the accept thread.
  void SetNetFaultHook(NetFaultHook hook) { fault_hook_ = std::move(hook); }

  Status Start();
  // Graceful: closes the listener, wakes per-connection threads, joins
  // them. Idempotent; safe without a successful Start().
  void Stop();

  int port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }
  uint64_t connections_accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop();
  void ServeConnection(TcpSocket socket, NetFault fault);

  Options options_;
  NetFaultHook fault_hook_;

  TcpListener listener_;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> accepted_{0};
  std::atomic<int> active_{0};

  std::thread accept_thread_;
  std::mutex workers_mu_;
  std::vector<std::thread> workers_;
};

}  // namespace granula::serve

#endif  // GRANULA_GRANULA_SERVE_FEED_H_
