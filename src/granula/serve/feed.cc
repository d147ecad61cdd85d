#include "granula/serve/feed.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/mapped_file.h"
#include "common/strings.h"
#include "granula/serve/http.h"
#include "granula/serve/service.h"

namespace granula::serve {

namespace {

// Sleeps `ms` in short naps so Stop() is never held up by a long stall.
void NapUnless(const std::atomic<bool>& stop, double ms) {
  double left = ms;
  while (left > 0 && !stop.load(std::memory_order_acquire)) {
    double nap = std::min(left, 20.0);
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(nap));
    left -= nap;
  }
}

// The resume offset from a "bytes=<offset>-" Range value (absent: from
// the top). Other units, closed, suffix and multi ranges are refused.
Result<uint64_t> RangeStart(const std::string& range) {
  if (range.empty()) return uint64_t{0};
  if (range.rfind("bytes=", 0) == 0 && range.back() == '-') {
    Result<uint64_t> offset =
        ParseUint64(std::string_view(range).substr(6, range.size() - 7));
    if (offset.ok()) return offset;
  }
  return Status::InvalidArgument("unsupported Range '" + range +
                                 "' (expected bytes=<offset>-)");
}

}  // namespace

Status LogFeedServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("feed server is already running");
  }
  GRANULA_ASSIGN_OR_RETURN(
      listener_, TcpListener::Bind(options_.host, options_.port, 64));
  port_ = listener_.port();
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void LogFeedServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(workers_mu_);
    workers.swap(workers_);
  }
  for (std::thread& worker : workers) {
    if (worker.joinable()) worker.join();
  }
}

void LogFeedServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    Result<TcpSocket> accepted = listener_.Accept(/*timeout_ms=*/50);
    if (!accepted.ok()) break;  // listener broken; Stop() owns cleanup
    if (!accepted->valid()) continue;  // poll timeout: re-check stopping_
    const uint64_t index = accepted_.fetch_add(1, std::memory_order_relaxed);
    NetFault fault;
    if (fault_hook_) fault = fault_hook_(index);
    if (fault.refuse ||
        active_.load(std::memory_order_relaxed) >= options_.max_connections) {
      continue;  // destructor closes: the follower sees a dead connection
    }
    TcpSocket socket = std::move(*accepted);
    (void)socket.SetTimeouts(options_.timeout_ms, options_.timeout_ms);
    active_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(workers_mu_);
    workers_.emplace_back(
        [this, fault](TcpSocket sock) {
          ServeConnection(std::move(sock), fault);
          active_.fetch_sub(1, std::memory_order_relaxed);
        },
        std::move(socket));
  }
}

void LogFeedServer::ServeConnection(TcpSocket socket, NetFault fault) {
  // The follower's request head, read with the serve stack's parser.
  std::string buffer;
  HttpRequest request;
  size_t consumed = 0;
  Result<bool> parsed = false;
  while ((parsed = ParseHttpRequest(buffer, &request, &consumed)).ok() &&
         !*parsed) {
    if (socket.Read(buffer) != TcpSocket::ReadOutcome::kData) return;
  }
  Result<uint64_t> start = parsed.ok() ? RangeStart(request.Header("range"))
                                       : Result<uint64_t>(parsed.status());
  if (!start.ok()) {
    (void)socket.WriteAll(SerializeHttpResponse(
        MakeErrorResponse(400, "bad_request", start.status().message()),
        /*keep_alive=*/false));
    return;
  }
  uint64_t offset = *start;
  if (!socket
           .WriteAll("HTTP/1.1 200 OK\r\n"
                     "Content-Type: application/x-ndjson\r\n"
                     "Transfer-Encoding: chunked\r\n"
                     "Connection: keep-alive\r\n\r\n")
           .ok()) {
    return;
  }

  if (fault.stall_ms > 0) NapUnless(stopping_, fault.stall_ms);

  uint64_t sent = 0;
  while (!stopping_.load(std::memory_order_acquire)) {
    Result<MappedFile> file = MappedFile::Open(options_.path);
    if (file.ok()) {
      std::string_view data = file->data();
      if (data.size() < offset) return;  // truncated behind our back
      if (data.size() > offset) {
        std::string_view window = data.substr(offset);
        bool abort_after = false;
        if (fault.reset_after_bytes > 0 &&
            sent + window.size() >= fault.reset_after_bytes) {
          // Mid-body reset: ship part of the window, then drop the
          // connection without a terminal chunk.
          window = window.substr(
              0, static_cast<size_t>(fault.reset_after_bytes - sent));
          abort_after = true;
        }
        if (!window.empty()) {
          std::string frame = StrFormat("%zx\r\n", window.size());
          frame.append(window.data(), window.size());
          frame += "\r\n";
          if (!socket.WriteAll(frame).ok()) return;
          sent += window.size();
          offset += window.size();
        }
        if (abort_after) return;
      }
    }
    NapUnless(stopping_, options_.poll_interval_ms);
  }
}

}  // namespace granula::serve
