#ifndef GRANULA_GRANULA_SERVE_FEED_H_
#define GRANULA_GRANULA_SERVE_FEED_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "common/random.h"
#include "common/socket.h"
#include "granula/live/clock.h"
#include "granula/live/record_source.h"
#include "granula/serve/handler.h"
#include "granula/serve/http.h"

namespace granula::serve {

// Both ends of the fleet's pull transport. The sending side serves one
// local JSONL log over HTTP to any number of TcpRecordSource followers
// (below; `granula feed` is an HttpServer in front of this handler). A
// follower sends one GET (any path) whose "Range: bytes=<offset>-" header
// names the resume offset (absent: from the top); the answer is a 200
// with Transfer-Encoding: chunked whose chunks carry the log's bytes from
// that offset on, following the file like `tail -f` until the follower
// goes away, the file shrinks below the offset, or the server stops. A
// malformed request or Range gets a 400 instead of a stream.
//
// Never parses the log; bytes go out as they land in the file, so a torn
// trailing line is the reader's problem by contract (TcpRecordSource
// buffers it until its newline arrives). Each stream holds one of the
// server's connection threads.
class LogFeedService : public HttpHandler {
 public:
  // Injectable request-scoped faults, mirroring sim::FaultInjector's
  // style: pure data decided per feed request (0-based index; a follower
  // sends one request per connection). Tests build the hook from a
  // sim::FaultPlan's net specs.
  struct NetFault {
    bool refuse = false;              // close without answering
    uint64_t reset_after_bytes = 0;   // abort after this much payload (>0)
    double stall_ms = 0;              // sleep before the first byte
  };
  using NetFaultHook = std::function<NetFault(uint64_t request)>;

  // `poll_interval_ms` is how often a stream re-checks the file.
  explicit LogFeedService(std::string path, double poll_interval_ms = 5)
      : path_(std::move(path)), poll_interval_ms_(poll_interval_ms) {}

  // Must be set before the server starts.
  void SetNetFaultHook(NetFaultHook hook) { fault_hook_ = std::move(hook); }

  HttpResponse Handle(const HttpRequest& request) override;
  TransportCounters& transport() override { return transport_; }

 private:
  void Stream(TcpSocket& socket, const std::atomic<bool>& stopping,
              uint64_t offset, NetFault fault) const;

  const std::string path_;
  const double poll_interval_ms_;
  NetFaultHook fault_hook_;
  std::atomic<uint64_t> requests_{0};
  TransportCounters transport_;
};

// The feed's follower: a networked record stream that follows a remote
// JSONL log served by `granula feed` (or any HTTP server answering the
// same request) and survives the feed's failures. The client sends
// "GET <path>" with "Range: bytes=<offset>-", and the server answers 200
// with Transfer-Encoding: chunked, each chunk carrying raw log bytes from
// that offset on, forever.
//
// Robustness contract, mirroring LogTailer's:
//  * Lines follow JsonlLineDecoder's rule: a line is consumed only once its
//    '\n' arrived, a partial line stays buffered across polls (bounded at
//    JsonlLineDecoder::kMaxLineBytes), and malformed lines are counted and
//    skipped, never fatal.
//  * A disconnect (EOF, reset, read error, refused or timed-out connect,
//    a response other than 200, broken chunk framing, the terminal chunk)
//    is not fatal: the source reconnects with jittered exponential
//    backoff and resumes from its consumed-line offset, so no record is
//    ever delivered twice and none is skipped.
//  * After `disconnect_budget` consecutive failures without a byte of
//    payload in between, the source declares itself lost().
class TcpRecordSource : public core::RecordSource {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    int port = 0;
    std::string path = "/";  // request target of the GET
    int connect_timeout_ms = 1000;
    // Consecutive failures (connects or disconnects with no payload in
    // between) before the job is declared lost. <= 0 never gives up.
    int disconnect_budget = 8;
    double backoff_base_ms = 50;
    double backoff_cap_ms = 2000;
    core::MonotonicClock now;  // injectable for deterministic backoff tests
  };

  explicit TcpRecordSource(Options options);

  Poll PollOnce() override;
  bool lost() const override { return lost_; }
  uint64_t reconnects() const override { return reconnects_; }
  uint64_t bytes_consumed() const override { return offset_; }
  std::string describe() const override;

  uint64_t consecutive_failures() const override {
    return consecutive_failures_;
  }

 private:
  bool TryConnect();
  void RecordFailure();
  // Transport bytes -> payload bytes: skips the response head, then
  // de-chunks. Returns false when the stream is broken (a malformed head
  // or a status other than 200, broken chunk framing, the terminal chunk)
  // and the connection must drop.
  bool DecodePayload(std::string_view bytes, std::string& payload);
  void ProcessPayload(std::string_view payload, Poll& poll);

  Options options_;
  core::MonotonicClock now_;
  Rng rng_;

  TcpSocket socket_;
  bool lost_ = false;
  uint64_t consecutive_failures_ = 0;
  uint64_t reconnects_ = 0;  // successful connects after the first
  uint64_t connects_ = 0;
  double next_attempt_s_ = 0;

  uint64_t offset_ = 0;  // remote-log bytes no longer buffered in lines_
  core::JsonlLineDecoder lines_;

  // HTTP framing state, reset per connection.
  std::string head_;  // the response head received so far
  bool head_done_ = false;
  HttpChunkDecoder chunks_;
};

}  // namespace granula::serve

#endif  // GRANULA_GRANULA_SERVE_FEED_H_
