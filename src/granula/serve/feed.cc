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

// Follower reads per poll: enough to catch up a fast stream (a few MiB
// per poll) without letting one job monopolize the supervisor loop.
constexpr int kMaxReadsPerPoll = 64;
// Follower kernel read deadline — the longest one PollOnce() can block.
constexpr int kReadTimeoutMs = 10;

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
  HttpResponse head;
  head.content_type = "application/x-ndjson";
  head.headers.emplace_back("Transfer-Encoding", "chunked");
  if (!socket.WriteAll(SerializeHttpResponse(head, /*keep_alive=*/true))
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
          if (!socket.WriteAll(EncodeHttpChunk(window)).ok()) return;
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

TcpRecordSource::TcpRecordSource(Options options)
    : options_(std::move(options)),
      now_(core::OrSteadyClock(options_.now)),
      rng_(/*seed=*/1) {}

// Mirrors the --source syntax, tcp://HOST:PORT[/PATH], with the default
// "/" left implicit.
std::string TcpRecordSource::describe() const {
  return StrFormat("tcp://%s:%d%s", options_.host.c_str(), options_.port,
                   options_.path == "/" ? "" : options_.path.c_str());
}

bool TcpRecordSource::TryConnect() {
  Result<TcpSocket> sock =
      TcpConnect(options_.host, options_.port, options_.connect_timeout_ms);
  if (!sock.ok()) return false;
  // Reads bound each poll; writes (the request head) get a generous
  // fixed deadline so a wedged peer cannot hold the supervisor.
  (void)sock->SetTimeouts(kReadTimeoutMs, /*send_ms=*/2000);
  const std::string request = SerializeHttpRequest(
      "GET", HttpUrl{options_.host, options_.port, options_.path}, "", "",
      {{"Range", StrFormat("bytes=%llu-",
                           static_cast<unsigned long long>(offset_))}},
      /*keep_alive=*/true);
  if (!sock->WriteAll(request).ok()) return false;
  socket_ = std::move(*sock);
  lines_.DropPartial();  // un-consumed tail bytes are re-sent from offset_
  head_.clear();
  head_done_ = false;
  chunks_ = HttpChunkDecoder();
  ++connects_;
  if (connects_ > 1) ++reconnects_;
  return true;
}

void TcpRecordSource::RecordFailure() {
  socket_.Close();
  ++consecutive_failures_;
  if (options_.disconnect_budget > 0 &&
      consecutive_failures_ >=
          static_cast<uint64_t>(options_.disconnect_budget)) {
    lost_ = true;
    return;
  }
  double delay_ms =
      core::JitteredBackoffMs(options_.backoff_base_ms,
                              options_.backoff_cap_ms,
                              consecutive_failures_ - 1, rng_);
  next_attempt_s_ = now_() + delay_ms / 1000.0;
}

bool TcpRecordSource::DecodePayload(std::string_view bytes,
                                    std::string& payload) {
  if (!head_done_) {
    head_.append(bytes);
    HttpResponseHead head;
    size_t consumed = 0;
    Result<bool> parsed = ParseHttpResponseHead(head_, &head, &consumed);
    if (!parsed.ok()) return false;
    if (!*parsed) return true;  // the head is still arriving
    // A 4xx/5xx has nothing streamable behind it.
    if (head.status != 200) return false;
    head_done_ = true;
    bytes = std::string_view(head_).substr(consumed);
  }
  Result<bool> going = chunks_.Decode(bytes, &payload);
  // The terminal chunk means the feed signed off: reconnect like a drop.
  return going.ok() && *going;
}

void TcpRecordSource::ProcessPayload(std::string_view payload, Poll& poll) {
  // Everything that entered and is no longer buffered was consumed —
  // complete lines plus any dropped oversize junk — so a reconnect
  // resumes right after it.
  const size_t entering = lines_.buffered() + payload.size();
  poll.malformed_lines += lines_.Feed(payload, poll.records);
  offset_ += entering - lines_.buffered();
}

core::RecordSource::Poll TcpRecordSource::PollOnce() {
  Poll poll;
  if (lost_) return poll;
  if (!socket_.valid()) {
    if (now_() < next_attempt_s_) return poll;
    if (!TryConnect()) {
      RecordFailure();
      return poll;
    }
  }
  for (int reads = 0; reads < kMaxReadsPerPoll; ++reads) {
    std::string bytes;
    switch (socket_.Read(bytes)) {
      case TcpSocket::ReadOutcome::kTimeout:
        return poll;  // nothing new this poll
      case TcpSocket::ReadOutcome::kData: {
        std::string payload;
        if (!DecodePayload(bytes, payload)) {
          RecordFailure();
          return poll;
        }
        if (!payload.empty()) {
          consecutive_failures_ = 0;
          ProcessPayload(payload, poll);
        }
        break;
      }
      case TcpSocket::ReadOutcome::kEof:
      case TcpSocket::ReadOutcome::kError:
        RecordFailure();
        return poll;
    }
  }
  return poll;
}

}  // namespace granula::serve
