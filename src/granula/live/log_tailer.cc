#include "granula/live/log_tailer.h"

#include <utility>

#include "common/mapped_file.h"

namespace granula::core {

namespace {

uint64_t DecodeLine(std::string_view line, std::vector<LogRecord>& records) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  if (line.find_first_not_of(" \t\r") == std::string_view::npos) return 0;
  // The fast JSONL codec: canonical lines skip the DOM entirely, and
  // anything else falls back internally.
  Result<LogRecord> record = LogRecord::ParseJsonl(line);
  if (!record.ok()) return 1;
  records.push_back(std::move(*record));
  return 0;
}

}  // namespace

uint64_t JsonlLineDecoder::Feed(std::string_view bytes,
                                std::vector<LogRecord>& records) {
  uint64_t malformed = 0;
  // Complete lines parse straight out of `bytes`; only a line split
  // across feeds goes through the partial_ copy.
  for (size_t newline; (newline = bytes.find('\n')) != std::string_view::npos;
       bytes.remove_prefix(newline + 1)) {
    std::string_view line = bytes.substr(0, newline);
    if (skipping_) {
      skipping_ = false;  // the dropped line's tail ends here
    } else if (!partial_.empty()) {
      partial_.append(line);
      malformed += DecodeLine(partial_, records);
      partial_.clear();
    } else {
      malformed += DecodeLine(line, records);
    }
  }
  if (!skipping_) partial_.append(bytes);
  if (partial_.size() > kMaxLineBytes) {
    ++malformed;
    partial_.clear();
    skipping_ = true;
  }
  return malformed;
}

uint64_t JsonlLineDecoder::Finish(std::vector<LogRecord>& records) {
  const uint64_t malformed = DecodeLine(partial_, records);
  partial_.clear();
  skipping_ = false;
  return malformed;
}

LogTailer::Poll LogTailer::PollOnce() {
  Poll result;

  // Map the file instead of streaming it: a batch catch-up (opening a
  // multi-GB log mid-run) parses straight out of the page cache. A file
  // that does not exist yet — or a read that fails outright — leaves the
  // offset untouched, so the next poll retries.
  auto file = MappedFile::Open(path_);
  if (!file.ok()) return result;

  const std::string_view view = file->data();
  if (view.size() < offset_) {
    // The file shrank under us: truncated or rotated. Start over.
    offset_ = 0;
    lines_ = JsonlLineDecoder();
    result.rotated = true;
  }
  result.malformed_lines = lines_.Feed(view.substr(offset_), result.records);
  offset_ = view.size();
  total_malformed_ += result.malformed_lines;
  return result;
}

}  // namespace granula::core
