#ifndef GRANULA_GRANULA_LIVE_RETRY_SINK_H_
#define GRANULA_GRANULA_LIVE_RETRY_SINK_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/random.h"
#include "common/result.h"
#include "granula/live/alert_sink.h"

namespace granula::core {

// The network half of AlertSink: delivery targets that can fail — an HTTP
// webhook (serve::WebhookDelivery, granula/serve/webhook.h), a command
// hook — wrapped in a retrying queue so an unreachable endpoint degrades
// to a local dead-letter artifact instead of losing alerts or wedging the
// monitoring loop.

// One delivery attempt to an external target. Implementations block at
// most their own configured timeout and are called from the retry
// worker thread only.
class AlertDelivery {
 public:
  virtual ~AlertDelivery() = default;
  // Delivers one serialized alert (a JSON object, no trailing newline).
  virtual Status Deliver(const std::string& alert_json) = 0;
  // Endpoint label for counters and dead-letter records.
  virtual std::string describe() const = 0;
};

// Pipes each alert into a shell command's stdin ("alert hook"); a
// non-zero exit (or a failed spawn) is a failed attempt.
class CommandDelivery : public AlertDelivery {
 public:
  explicit CommandDelivery(std::string command)
      : command_(std::move(command)) {}
  Status Deliver(const std::string& alert_json) override;
  std::string describe() const override { return "cmd:" + command_; }

 private:
  std::string command_;
};

struct RetrySinkOptions {
  // Attempts per alert, first try included.
  uint32_t max_attempts = 4;
  double backoff_base_ms = 25;
  double backoff_cap_ms = 2000;
  // Bounded buffer between the monitoring loop and the delivery worker.
  // Overflowing alerts are dead-lettered immediately (counted, never
  // silently dropped).
  size_t queue_capacity = 256;
  // Exhausted or overflowed alerts are appended here as JSON lines
  // carrying the original alert plus a "dead_letter" envelope. Empty:
  // they are only counted.
  std::string dead_letter_path;
};

// AlertSink adapter around an AlertDelivery: OnAlert() enqueues and
// returns immediately; a worker thread delivers with capped, jittered
// exponential backoff between attempts. Every alert ends in exactly one
// of: delivered, dead-lettered — the counters below always account for
// all of them. Flush() (and the destructor) blocks until the queue has
// fully resolved, so a drain never abandons an alert in limbo.
class RetryingAlertSink : public AlertSink {
 public:
  struct Stats {
    uint64_t enqueued = 0;
    uint64_t delivered = 0;
    uint64_t attempts = 0;         // individual Deliver() calls
    uint64_t retries = 0;          // attempts beyond each alert's first
    uint64_t dead_lettered = 0;    // exhausted or overflowed
    uint64_t dropped_overflow = 0; // subset of dead_lettered: queue full
    uint64_t dead_letter_errors = 0;  // dead-letter file write failures
    uint64_t pending = 0;          // queued + in flight right now
  };

  RetryingAlertSink(std::unique_ptr<AlertDelivery> delivery,
                    RetrySinkOptions options);
  ~RetryingAlertSink() override;

  void OnAlert(const LiveAlert& alert) override;
  void Flush() override;

  Stats stats() const;
  std::string describe() const { return delivery_->describe(); }

 private:
  void WorkerLoop();
  // Appends the dead-letter record; called on the worker thread (or from
  // OnAlert for overflow, under queue_mu_'s protection for the counters
  // but with its own file mutex).
  void DeadLetter(const std::string& alert_json, const Status& why,
                  uint32_t attempts_made);
  bool WaitBackoff(double delay_ms);  // false when asked to stop waiting

  std::unique_ptr<AlertDelivery> delivery_;
  RetrySinkOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;        // wakes the worker
  std::condition_variable drained_cv_;  // wakes Flush()
  std::deque<std::string> queue_;
  bool in_flight_ = false;
  bool stopping_ = false;
  Stats stats_;
  Rng rng_;

  std::mutex dead_letter_mu_;
  std::FILE* dead_letter_ = nullptr;  // opened lazily

  std::thread worker_;
};

}  // namespace granula::core

#endif  // GRANULA_GRANULA_LIVE_RETRY_SINK_H_
