#ifndef GRANULA_GRANULA_LIVE_RECORD_SOURCE_H_
#define GRANULA_GRANULA_LIVE_RECORD_SOURCE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/random.h"
#include "common/socket.h"
#include "granula/live/clock.h"
#include "granula/live/log_tailer.h"

namespace granula::core {

// Where a live job's records come from. The shape is exactly
// LogTailer::PollOnce()'s: each poll returns the records that arrived
// since the previous one, never blocks beyond one bounded read, and never
// fails — a source that is down simply returns nothing until it recovers
// (or declares itself lost). StreamingArchiver and the fleet loop (which
// `granula watch` runs too) are byte-for-byte indifferent to which
// transport feeds them.
class RecordSource {
 public:
  using Poll = LogTailer::Poll;

  virtual ~RecordSource() = default;

  virtual Poll PollOnce() = 0;

  // True once the source has permanently given up (reconnect budget
  // exhausted). The supervisor finalizes the job as incomplete and stops
  // polling; other jobs are unaffected.
  virtual bool lost() const { return false; }

  // Transport counters for the fleet status page.
  virtual uint64_t reconnects() const { return 0; }
  virtual uint64_t consecutive_failures() const { return 0; }
  virtual uint64_t bytes_consumed() const = 0;

  // Human-readable endpoint ("file:run.jsonl", "tcp://10.0.0.2:7070").
  virtual std::string describe() const = 0;
};

// The local tailer behind the interface. Rotation detection
// (Poll::rotated) and partial-line buffering are LogTailer's own.
class FileRecordSource : public RecordSource {
 public:
  explicit FileRecordSource(std::string path) : tailer_(std::move(path)) {}

  Poll PollOnce() override { return tailer_.PollOnce(); }
  uint64_t bytes_consumed() const override { return tailer_.bytes_consumed(); }
  std::string describe() const override { return "file:" + tailer_.path(); }

 private:
  LogTailer tailer_;
};

// A networked record stream: follows a remote JSONL log served by
// `granula feed` (or any HTTP server answering the same request) and
// survives the feed's failures. The wire is plain HTTP/1.1: the client
// sends "GET <path>" with "Range: bytes=<offset>-", and the server answers
// 200 with Transfer-Encoding: chunked, each chunk carrying raw log bytes
// from that offset on, forever.
//
// Robustness contract, mirroring LogTailer's:
//  * Lines follow JsonlLineDecoder's rule: a line is consumed only once its
//    '\n' arrived, a partial line stays buffered across polls (bounded at
//    JsonlLineDecoder::kMaxLineBytes), and malformed lines are counted and
//    skipped, never fatal.
//  * A disconnect (EOF, reset, read error, refused or timed-out connect)
//    is not fatal: the source reconnects with jittered exponential
//    backoff and resumes from its consumed-line offset, so no record is
//    ever delivered twice and none is skipped.
//  * After `disconnect_budget` consecutive failures without a byte of
//    payload in between, the source declares itself lost().
class TcpRecordSource : public RecordSource {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    int port = 0;
    std::string path = "/";  // request target of the GET
    int connect_timeout_ms = 1000;
    // Kernel read deadline — the longest one PollOnce() can block.
    int read_timeout_ms = 10;
    // Consecutive failures (connects or disconnects with no payload in
    // between) before the job is declared lost. <= 0 never gives up.
    int disconnect_budget = 8;
    double backoff_base_ms = 50;
    double backoff_cap_ms = 2000;
    uint64_t jitter_seed = 1;
    MonotonicClock now;  // injectable for deterministic backoff tests
  };

  explicit TcpRecordSource(Options options);

  Poll PollOnce() override;
  bool lost() const override { return lost_; }
  uint64_t reconnects() const override { return reconnects_; }
  uint64_t bytes_consumed() const override;
  std::string describe() const override;

  uint64_t consecutive_failures() const override {
    return consecutive_failures_;
  }

 private:
  bool TryConnect();
  void RecordFailure();
  // Transport bytes -> payload bytes: skips the response head, then
  // de-chunks. Returns false when the stream is broken (bad status line,
  // bad chunk framing, terminal chunk) and the connection must drop.
  bool DecodePayload(std::string_view bytes, std::string& payload);
  void ProcessPayload(std::string_view payload, Poll& poll);

  Options options_;
  MonotonicClock now_;
  Rng rng_;

  TcpSocket socket_;
  bool lost_ = false;
  uint64_t consecutive_failures_ = 0;
  uint64_t reconnects_ = 0;  // successful connects after the first
  uint64_t connects_ = 0;
  double next_attempt_s_ = 0;

  uint64_t offset_ = 0;  // remote-log bytes no longer buffered in lines_
  JsonlLineDecoder lines_;

  // HTTP framing state, reset per connection.
  std::string framing_;  // undecoded transport bytes
  bool headers_done_ = false;
  uint64_t chunk_remaining_ = 0;
  int chunk_skip_ = 0;  // CRLF bytes to swallow after a chunk's data
};

}  // namespace granula::core

#endif  // GRANULA_GRANULA_LIVE_RECORD_SOURCE_H_
