#ifndef GRANULA_GRANULA_LIVE_LOG_TAILER_H_
#define GRANULA_GRANULA_LIVE_LOG_TAILER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "granula/monitor/job_logger.h"

namespace granula::core {

// The one JSONL line rule every live reader shares: the file tailer, the
// feed follower, and the fleet's POST body. A line ends at '\n' and loses
// one trailing '\r'; a line holding only ' ', '\t' or '\r' is skipped
// (the batch ReadLogRecords rule); any other line that does not parse is
// counted malformed and dropped, never fatal. Bytes after the last '\n'
// stay buffered until a later Feed() completes them. A buffered partial
// line longer than kMaxLineBytes is garbage by fiat: it is dropped and
// counted malformed once, and the rest of it is skipped up to its '\n',
// so an endless line never balloons memory.
class JsonlLineDecoder {
 public:
  static constexpr size_t kMaxLineBytes = size_t{1} << 20;

  // Decodes every line `bytes` completes into `records`; returns how many
  // of those lines were malformed.
  uint64_t Feed(std::string_view bytes, std::vector<LogRecord>& records);
  // Decodes the buffered unterminated tail as a last line — the end of a
  // POST body ends its last line — and empties the buffer.
  uint64_t Finish(std::vector<LogRecord>& records);

  // Bytes held back as an unterminated line.
  size_t buffered() const { return partial_.size(); }
  // Forgets the unterminated tail (a follower re-fetches it on reconnect).
  void DropPartial() { partial_.clear(); }

 private:
  std::string partial_;
  bool skipping_ = false;  // inside a dropped oversized line
};

// Follows a JSONL platform log being written by a running job — the
// `tail -f` of the live-monitoring pipeline. Each Poll() returns the
// records appended since the previous poll.
//
// Robustness contract:
//  * Lines follow JsonlLineDecoder's rule: a line is consumed only once
//    its trailing '\n' is on disk; a partial line (the writer was
//    mid-append) stays buffered across polls; malformed lines are counted
//    and skipped, never fatal — mid-job logs legitimately contain garbage
//    (crashed writers, interleaved output).
//  * The file not existing yet is not an error — the job may not have
//    opened its log; Poll() simply returns nothing.
//  * Truncation or rotation (the file shrank, e.g. the job restarted with
//    a fresh log) is detected by size regression: the tailer restarts
//    from offset zero, drops its partial-line buffer, and reports
//    `rotated` so the consumer can reset its own state.
class LogTailer {
 public:
  struct Poll {
    std::vector<LogRecord> records;
    uint64_t malformed_lines = 0;
    bool rotated = false;
  };

  explicit LogTailer(std::string path) : path_(std::move(path)) {}

  // Reads everything appended since the last call. Never blocks beyond
  // one read of the file's new bytes.
  Poll PollOnce();

  const std::string& path() const { return path_; }
  uint64_t bytes_consumed() const { return offset_; }
  uint64_t total_malformed_lines() const { return total_malformed_; }

 private:
  std::string path_;
  uint64_t offset_ = 0;  // bytes read so far (complete lines + partial)
  JsonlLineDecoder lines_;
  uint64_t total_malformed_ = 0;
};

}  // namespace granula::core

#endif  // GRANULA_GRANULA_LIVE_LOG_TAILER_H_
