#ifndef GRANULA_GRANULA_LIVE_RECORD_SOURCE_H_
#define GRANULA_GRANULA_LIVE_RECORD_SOURCE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "granula/live/log_tailer.h"

namespace granula::core {

// Where a live job's records come from. The shape is exactly
// LogTailer::PollOnce()'s: each poll returns the records that arrived
// since the previous one, never blocks beyond one bounded read, and never
// fails — a source that is down simply returns nothing until it recovers
// (or declares itself lost). StreamingArchiver and the fleet loop (which
// `granula watch` runs too) are byte-for-byte indifferent to which
// transport feeds them. The networked source, the feed's follower, is
// serve::TcpRecordSource (granula/serve/feed.h).
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

}  // namespace granula::core

#endif  // GRANULA_GRANULA_LIVE_RECORD_SOURCE_H_
