#ifndef GRANULA_GRANULA_SERVE_SERVER_H_
#define GRANULA_GRANULA_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/socket.h"
#include "granula/serve/service.h"

namespace granula::serve {

struct ServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  // 0 picks a free port; port() reports the real one
  // Connection threads. 0 = as many as the shared host pool has threads.
  int threads = 0;
  // Per-direction socket timeout. A client that stalls mid-request gets a
  // 408 (or a silent close when it never sent a byte) after this long.
  int timeout_ms = 5000;
};

// The blocking HTTP/1.1 daemon: one listener thread accepting into a
// bounded queue, plus `threads` connection threads of its own (the host
// pool stays free for compute). Each connection thread drains connections
// from the queue, speaking keep-alive HTTP until the peer closes, errors,
// or Stop() drains the daemon; a response with a `stream` takes the
// connection over until it returns. When every thread is busy and the
// queue holds kAcceptQueue connections, new connections get a 503.
//
// Shutdown: Stop() closes the listener, rejects queued connections, and
// shuts down the read side of in-flight sockets — a thread mid-response
// still flushes its bytes, then sees EOF and exits; a stream sees its
// `stopping` flag. Stop() blocks until every connection thread returned.
class HttpServer {
 public:
  HttpServer(HttpHandler* service, ServerOptions options)
      : service_(service), options_(std::move(options)) {}
  ~HttpServer() { Stop(); }

  // Connections that may wait for a free connection thread.
  static constexpr size_t kAcceptQueue = 64;

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  // Binds and spins up the listener + connection threads. IoError when
  // the address is unavailable (CLI exit 1); FailedPrecondition when
  // already started.
  Status Start();

  // The bound port (after Start(); real port when options.port was 0).
  int port() const { return port_; }

  // Graceful drain; idempotent; safe to call without a successful Start().
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

 private:
  void ListenerLoop();
  // One connection thread's loop.
  void WorkerLoop();
  // Serves one connection until close/EOF/timeout/stop.
  void ServeConnection(TcpSocket socket);

  HttpHandler* service_;
  ServerOptions options_;

  TcpListener listener_;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  // Listener -> worker hand-off, bounded by kAcceptQueue.
  // `active_fds_` tracks sockets currently inside ServeConnection so
  // Stop() can unblock their reads; a worker registers the fd under the
  // same lock that pops it, so no connection is ever invisible to Stop().
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<TcpSocket> queue_;
  std::unordered_set<int> active_fds_;

  std::thread listener_thread_;
  std::vector<std::thread> workers_;
};

}  // namespace granula::serve

#endif  // GRANULA_GRANULA_SERVE_SERVER_H_
