#include "granula/live/record_source.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "common/strings.h"

namespace granula::core {

namespace {

// Reads per poll: enough to catch up a fast stream (a few MiB per poll)
// without letting one job monopolize the supervisor loop.
constexpr int kMaxReadsPerPoll = 64;
// Kernel read deadline — the longest one PollOnce() can block.
constexpr int kReadTimeoutMs = 10;

}  // namespace

TcpRecordSource::TcpRecordSource(Options options)
    : options_(std::move(options)),
      now_(OrSteadyClock(options_.now)),
      rng_(/*seed=*/1) {}

uint64_t TcpRecordSource::bytes_consumed() const { return offset_; }

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
  const std::string request = StrFormat(
      "GET %s HTTP/1.1\r\nHost: %s\r\nRange: bytes=%llu-\r\n"
      "Connection: keep-alive\r\n\r\n",
      options_.path.c_str(), options_.host.c_str(),
      static_cast<unsigned long long>(offset_));
  if (!sock->WriteAll(request).ok()) return false;
  socket_ = std::move(*sock);
  lines_.DropPartial();  // un-consumed tail bytes are re-sent from offset_
  framing_.clear();
  headers_done_ = false;
  chunk_remaining_ = 0;
  chunk_skip_ = 0;
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
      JitteredBackoffMs(options_.backoff_base_ms, options_.backoff_cap_ms,
                        consecutive_failures_ - 1, rng_);
  next_attempt_s_ = now_() + delay_ms / 1000.0;
}

bool TcpRecordSource::DecodePayload(std::string_view bytes,
                                    std::string& payload) {
  framing_.append(bytes.data(), bytes.size());
  if (!headers_done_) {
    size_t end = framing_.find("\r\n\r\n");
    if (end == std::string::npos) {
      // A server that talks 16 KiB of headers is not a feed.
      return framing_.size() <= 16 * 1024;
    }
    std::string_view head(framing_.data(), end);
    if (head.rfind("HTTP/1.1 200", 0) != 0 &&
        head.rfind("HTTP/1.0 200", 0) != 0) {
      return false;  // 4xx/5xx: nothing streamable behind this response
    }
    framing_.erase(0, end + 4);
    headers_done_ = true;
  }
  // De-chunk everything decodable so far; leave an incomplete chunk
  // header or trailer in framing_ for the next read.
  for (;;) {
    if (chunk_skip_ > 0) {
      int take = static_cast<int>(
          std::min<size_t>(framing_.size(), static_cast<size_t>(chunk_skip_)));
      framing_.erase(0, static_cast<size_t>(take));
      chunk_skip_ -= take;
      if (chunk_skip_ > 0) return true;
    }
    if (chunk_remaining_ == 0) {
      size_t eol = framing_.find("\r\n");
      if (eol == std::string::npos) {
        return framing_.size() <= 64;  // a chunk-size line is a few bytes
      }
      char* end = nullptr;
      unsigned long long size =
          std::strtoull(framing_.c_str(), &end, 16);
      if (end == framing_.c_str()) return false;  // not a hex size
      framing_.erase(0, eol + 2);
      if (size == 0) return false;  // terminal chunk: the feed signed off
      chunk_remaining_ = size;
    }
    if (framing_.empty()) return true;
    size_t take = std::min<size_t>(framing_.size(), chunk_remaining_);
    payload.append(framing_.data(), take);
    framing_.erase(0, take);
    chunk_remaining_ -= take;
    if (chunk_remaining_ == 0) chunk_skip_ = 2;  // the chunk's CRLF
    if (framing_.empty()) return true;
  }
}

void TcpRecordSource::ProcessPayload(std::string_view payload, Poll& poll) {
  // Everything that entered and is no longer buffered was consumed —
  // complete lines plus any dropped oversize junk — so a reconnect
  // resumes right after it.
  const size_t entering = lines_.buffered() + payload.size();
  poll.malformed_lines += lines_.Feed(payload, poll.records);
  offset_ += entering - lines_.buffered();
}

RecordSource::Poll TcpRecordSource::PollOnce() {
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

}  // namespace granula::core
