#ifndef GRANULA_GRANULA_LIVE_ALERT_SINK_H_
#define GRANULA_GRANULA_LIVE_ALERT_SINK_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "granula/live/alerts.h"

namespace granula::core {

// Pluggable destination for live alerts. The fleet supervisor (and so
// `granula watch`, a one-job fleet) routes every freshly raised alert —
// choke-point findings, retry/failure alerts, stall detections — to each
// configured sink, so alerts can go to the terminal, a machine-readable
// file, or a webhook (live/retry_sink.h) without the monitoring loop
// knowing the difference.
class AlertSink {
 public:
  virtual ~AlertSink() = default;
  // Called once per distinct alert, in the order raised.
  virtual void OnAlert(const LiveAlert& alert) = 0;
  // Called when the supervisor drains; sinks with buffers should drain
  // them.
  virtual void Flush() {}
};

// One JSON object describing the alert; reparses with common/json.h.
// The "job" key appears only when the alert carries a job name.
Json AlertToJson(const LiveAlert& alert);

// Prints the classic "ALERT [severity] kind operation: description"
// line per alert. Does not own the stream.
class TerminalAlertSink : public AlertSink {
 public:
  explicit TerminalAlertSink(std::FILE* out) : out_(out) {}
  void OnAlert(const LiveAlert& alert) override;
  void Flush() override;

 private:
  std::FILE* out_;
};

// Appends one JSON line per alert to a file, flushed per alert so a
// concurrent reader (a dashboard, a test) sees alerts as they fire.
//
// Torn-write hardening: each line goes down in a single fwrite of the
// complete bytes followed by a flush, so a crash between alerts never
// leaves half a line, and a failed write is surfaced through
// write_errors()/status() instead of silently losing the alert.
class JsonlAlertSink : public AlertSink {
 public:
  // Opens `path` for appending; fails if the file cannot be created.
  static Result<std::unique_ptr<JsonlAlertSink>> Open(
      const std::string& path);
  ~JsonlAlertSink() override;
  void OnAlert(const LiveAlert& alert) override;
  void Flush() override;

  // Alerts whose bytes did not all reach the file (short fwrite or a
  // flush error). Non-zero means the alert log is missing lines.
  uint64_t write_errors() const { return write_errors_; }
  // OK, or IoError naming the path once any write failed.
  Status status() const;

 private:
  JsonlAlertSink(std::FILE* file, std::string path)
      : file_(file), path_(std::move(path)) {}
  std::FILE* file_;
  std::string path_;
  uint64_t write_errors_ = 0;
};

// Reads an alert JSONL file back, tolerating the torn trailing line an
// interrupted writer can leave: complete, parseable lines come back as
// alerts; a malformed line or a trailing fragment without its newline is
// counted in `quarantined`, never an error. Only a missing/unreadable
// file fails.
struct AlertLogContents {
  std::vector<Json> alerts;
  uint64_t quarantined = 0;
};
Result<AlertLogContents> ReadAlertJsonl(const std::string& path);

}  // namespace granula::core

#endif  // GRANULA_GRANULA_LIVE_ALERT_SINK_H_
