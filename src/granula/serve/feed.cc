#include "granula/serve/feed.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/mapped_file.h"
#include "common/strings.h"
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

HttpResponse LogFeedService::Handle(const HttpRequest& request) {
  const uint64_t index = requests_.fetch_add(1, std::memory_order_relaxed);
  NetFault fault;
  if (fault_hook_) fault = fault_hook_(index);
  HttpResponse response;
  if (fault.refuse) {
    // An empty stream: the server closes the connection unanswered, so
    // the follower sees a dead connection.
    response.stream = [](TcpSocket&, const std::atomic<bool>&) {};
    return response;
  }
  Result<uint64_t> start = RangeStart(request.Header("range"));
  if (!start.ok()) {
    return MakeErrorResponse(400, "bad_request", start.status().message());
  }
  response.stream = [this, offset = *start, fault](
                        TcpSocket& socket, const std::atomic<bool>& stopping) {
    Stream(socket, stopping, offset, fault);
  };
  return response;
}

void LogFeedService::Stream(TcpSocket& socket,
                            const std::atomic<bool>& stopping,
                            uint64_t offset, NetFault fault) const {
  if (!socket
           .WriteAll("HTTP/1.1 200 OK\r\n"
                     "Content-Type: application/x-ndjson\r\n"
                     "Transfer-Encoding: chunked\r\n"
                     "Connection: keep-alive\r\n\r\n")
           .ok()) {
    return;
  }

  if (fault.stall_ms > 0) NapUnless(stopping, fault.stall_ms);

  uint64_t sent = 0;
  while (!stopping.load(std::memory_order_acquire)) {
    Result<MappedFile> file = MappedFile::Open(path_);
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
    NapUnless(stopping, poll_interval_ms_);
    // A follower that has gone would otherwise hold this connection
    // thread until the log next grows and the write fails.
    if (socket.PeerClosed()) return;
  }
}

}  // namespace granula::serve
