#include "granula/live/retry_sink.h"

#include <chrono>
#include <utility>

#include "common/strings.h"
#include "granula/live/clock.h"

#if defined(__unix__) || defined(__APPLE__)
#define GRANULA_HAVE_POPEN 1
#include <signal.h>
#include <sys/wait.h>
#endif

namespace granula::core {

#ifdef GRANULA_HAVE_POPEN
namespace {
// A command that exits without reading its stdin closes the pipe; the
// subsequent fwrite would raise SIGPIPE and kill the whole daemon. Pipe
// writes have no MSG_NOSIGNAL equivalent, so the disposition is ignored
// for the duration of the write and restored after.
class ScopedSigpipeIgnore {
 public:
  ScopedSigpipeIgnore() {
    struct sigaction ignore = {};
    ignore.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &ignore, &old_);
  }
  ~ScopedSigpipeIgnore() { ::sigaction(SIGPIPE, &old_, nullptr); }

 private:
  struct sigaction old_ = {};
};
}  // namespace
#endif

Status CommandDelivery::Deliver(const std::string& alert_json) {
#ifdef GRANULA_HAVE_POPEN
  ScopedSigpipeIgnore sigpipe_guard;
  std::FILE* pipe = ::popen(command_.c_str(), "w");
  if (pipe == nullptr) {
    return Status::IoError("cannot spawn alert command: " + command_);
  }
  std::string line = alert_json;
  line.push_back('\n');
  size_t wrote = std::fwrite(line.data(), 1, line.size(), pipe);
  int status = ::pclose(pipe);
  if (wrote != line.size()) {
    return Status::IoError("alert command did not read the alert: " +
                           command_);
  }
  if (status == -1 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::IoError(
        StrFormat("alert command failed (status %d): %s", status,
                  command_.c_str()));
  }
  return Status::OK();
#else
  (void)alert_json;
  return Status::Unimplemented("command hooks unavailable on this platform");
#endif
}

RetryingAlertSink::RetryingAlertSink(std::unique_ptr<AlertDelivery> delivery,
                                     RetrySinkOptions options)
    : delivery_(std::move(delivery)),
      options_(std::move(options)),
      rng_(/*seed=*/1) {
  if (options_.max_attempts == 0) options_.max_attempts = 1;
  worker_ = std::thread([this] { WorkerLoop(); });
}

RetryingAlertSink::~RetryingAlertSink() {
  Flush();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
  std::lock_guard<std::mutex> lock(dead_letter_mu_);
  if (dead_letter_ != nullptr) {
    std::fclose(dead_letter_);
    dead_letter_ = nullptr;
  }
}

void RetryingAlertSink::OnAlert(const LiveAlert& alert) {
  std::string json = AlertToJson(alert).Dump();
  bool overflow = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.enqueued;
    if (queue_.size() >= options_.queue_capacity) {
      // Shedding is explicit: the alert goes straight to the dead-letter
      // file and both counters move. Silent drop is never an option.
      ++stats_.dead_lettered;
      ++stats_.dropped_overflow;
      overflow = true;
    } else {
      queue_.push_back(std::move(json));
    }
  }
  if (overflow) {
    DeadLetter(json,
               Status::FailedPrecondition("delivery queue overflowed"),
               /*attempts_made=*/0);
  } else {
    cv_.notify_one();
  }
}

bool RetryingAlertSink::WaitBackoff(double delay_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, std::chrono::duration<double, std::milli>(delay_ms),
               [this] { return stopping_; });
  return !stopping_;
}

void RetryingAlertSink::WorkerLoop() {
  for (;;) {
    std::string json;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and fully drained
      json = std::move(queue_.front());
      queue_.pop_front();
      in_flight_ = true;
    }
    Status last = Status::OK();
    bool delivered = false;
    uint32_t attempts_made = 0;
    for (uint32_t attempt = 0; attempt < options_.max_attempts; ++attempt) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.attempts;
        if (attempt > 0) ++stats_.retries;
      }
      ++attempts_made;
      last = delivery_->Deliver(json);
      if (last.ok()) {
        delivered = true;
        break;
      }
      if (attempt + 1 < options_.max_attempts) {
        // During shutdown the wait is cut short: remaining attempts fire
        // back-to-back so a dead endpoint cannot hold the drain for the
        // full backoff schedule.
        WaitBackoff(JitteredBackoffMs(options_.backoff_base_ms,
                                      options_.backoff_cap_ms, attempt, rng_));
      }
    }
    if (!delivered) DeadLetter(json, last, attempts_made);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (delivered) {
        ++stats_.delivered;
      } else {
        ++stats_.dead_lettered;
      }
      in_flight_ = false;
      if (queue_.empty()) drained_cv_.notify_all();
    }
  }
}

void RetryingAlertSink::DeadLetter(const std::string& alert_json,
                                   const Status& why,
                                   uint32_t attempts_made) {
  if (options_.dead_letter_path.empty()) return;
  // {"alert":<original>,"dead_letter":{...}} — the original object is
  // embedded verbatim, so the line is valid JSON without a reparse.
  Json envelope = Json::MakeObject();
  envelope["sink"] = delivery_->describe();
  envelope["error"] = why.ToString();
  envelope["attempts"] = static_cast<uint64_t>(attempts_made);
  std::string line = "{\"alert\":";
  line += alert_json;
  line += ",\"dead_letter\":";
  line += envelope.Dump();
  line += "}\n";

  bool failed = false;
  {
    std::lock_guard<std::mutex> lock(dead_letter_mu_);
    if (dead_letter_ == nullptr) {
      dead_letter_ = std::fopen(options_.dead_letter_path.c_str(), "a");
    }
    if (dead_letter_ == nullptr) {
      failed = true;
    } else {
      size_t wrote = std::fwrite(line.data(), 1, line.size(), dead_letter_);
      if (wrote != line.size() || std::fflush(dead_letter_) != 0 ||
          std::ferror(dead_letter_) != 0) {
        failed = true;
        std::clearerr(dead_letter_);
      }
    }
  }
  if (failed) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.dead_letter_errors;
  }
}

void RetryingAlertSink::Flush() {
  std::unique_lock<std::mutex> lock(mu_);
  drained_cv_.wait(lock, [this] { return queue_.empty() && !in_flight_; });
}

RetryingAlertSink::Stats RetryingAlertSink::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats out = stats_;
  out.pending = queue_.size() + (in_flight_ ? 1 : 0);
  return out;
}

}  // namespace granula::core
