#include "granula/serve/server.h"

#include <utility>

#include "common/strings.h"
#include "common/thread_pool.h"

namespace granula::serve {

namespace {
constexpr int kListenBacklog = 128;
}  // namespace

Status HttpServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server is already running");
  }
  GRANULA_ASSIGN_OR_RETURN(
      listener_,
      TcpListener::Bind(options_.host, options_.port, kListenBacklog));
  port_ = listener_.port();
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);

  listener_thread_ = std::thread([this] { ListenerLoop(); });

  const int threads = options_.threads > 0
                          ? options_.threads
                          : ThreadPool::Global().num_threads();
  workers_.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void HttpServer::ListenerLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    auto accepted = listener_.Accept(/*timeout_ms=*/50);
    if (!accepted.ok()) break;  // listener broken; Stop() owns cleanup
    if (!accepted->valid()) continue;  // poll timeout: re-check stopping_
    TcpSocket socket = std::move(*accepted);
    service_->transport().connections.fetch_add(1,
                                                std::memory_order_relaxed);
    (void)socket.SetTimeouts(options_.timeout_ms, options_.timeout_ms);

    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (!stopping_.load(std::memory_order_acquire) &&
          queue_.size() < kAcceptQueue) {
        queue_.push_back(std::move(socket));
        queue_cv_.notify_one();
        continue;
      }
    }
    // Queue full (or draining): turn the connection away instead of
    // letting it starve unread.
    service_->transport().rejected.fetch_add(1, std::memory_order_relaxed);
    HttpResponse busy = MakeErrorResponse(
        503, "overloaded", "accept queue is full; retry shortly");
    (void)socket.WriteAll(
        SerializeHttpResponse(busy, /*keep_alive=*/false));
  }
}

void HttpServer::WorkerLoop() {
  for (;;) {
    TcpSocket socket;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return stopping_.load(std::memory_order_acquire) || !queue_.empty();
      });
      if (queue_.empty()) return;  // stopping, queue drained
      socket = std::move(queue_.front());
      queue_.pop_front();
      // Registered under the pop's lock so Stop() either sees the socket
      // in the queue or in the active set — never neither.
      active_fds_.insert(socket.fd());
    }
    const int fd = socket.fd();
    ServeConnection(std::move(socket));
    std::lock_guard<std::mutex> lock(queue_mu_);
    active_fds_.erase(fd);
  }
}

void HttpServer::ServeConnection(TcpSocket socket) {
  std::string buffer;
  while (!stopping_.load(std::memory_order_acquire)) {
    // Accumulate bytes until one complete request is parsed.
    HttpRequest request;
    size_t consumed = 0;
    bool complete = false;
    while (!complete) {
      auto parsed = ParseHttpRequest(buffer, &request, &consumed);
      if (!parsed.ok()) {
        HttpResponse bad = MakeErrorResponse(400, "bad_request",
                                             parsed.status().message());
        (void)socket.WriteAll(
            SerializeHttpResponse(bad, /*keep_alive=*/false));
        return;
      }
      if (*parsed) {
        complete = true;
        break;
      }
      switch (socket.Read(buffer)) {
        case TcpSocket::ReadOutcome::kData:
          break;
        case TcpSocket::ReadOutcome::kEof:
        case TcpSocket::ReadOutcome::kError:
          // Idle keep-alive close, peer reset, or Stop()'s read shutdown;
          // partial bytes are not answerable once the peer is gone.
          return;
        case TcpSocket::ReadOutcome::kTimeout: {
          service_->transport().timeouts.fetch_add(
              1, std::memory_order_relaxed);
          if (!buffer.empty()) {
            // The client started a request and stalled: tell it why the
            // connection is going away.
            HttpResponse timeout = MakeErrorResponse(
                408, "request_timeout",
                StrFormat("no complete request within %d ms",
                          options_.timeout_ms));
            (void)socket.WriteAll(
                SerializeHttpResponse(timeout, /*keep_alive=*/false));
          }
          return;
        }
      }
    }
    buffer.erase(0, consumed);

    HttpResponse response = service_->Handle(request);
    if (response.stream) {
      response.stream(socket, stopping_);
      return;
    }
    const bool keep_alive =
        request.Header("Connection") != "close" &&
        !stopping_.load(std::memory_order_acquire);
    if (!socket
             .WriteAll(SerializeHttpResponse(response, keep_alive,
                                             request.method == "HEAD"))
             .ok()) {
      return;
    }
    if (!keep_alive) return;
  }
}

void HttpServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_.clear();  // destructors close the queued sockets
    for (int fd : active_fds_) ShutdownReadFd(fd);
  }
  queue_cv_.notify_all();
  if (listener_thread_.joinable()) listener_thread_.join();
  listener_.Close();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
}

}  // namespace granula::serve
