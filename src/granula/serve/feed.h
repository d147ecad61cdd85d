#ifndef GRANULA_GRANULA_SERVE_FEED_H_
#define GRANULA_GRANULA_SERVE_FEED_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "common/socket.h"
#include "granula/serve/handler.h"

namespace granula::serve {

// The sending side of the fleet transport: serves one local JSONL log
// over HTTP to any number of TcpRecordSource followers (`granula feed` is
// an HttpServer in front of this handler). A follower sends one GET (any
// path) whose "Range: bytes=<offset>-" header names the resume offset
// (absent: from the top); the answer is a 200 with Transfer-Encoding:
// chunked whose chunks carry the log's bytes from that offset on,
// following the file like `tail -f` until the follower goes away, the
// file shrinks below the offset, or the server stops. A malformed request
// or Range gets a 400 instead of a stream.
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

}  // namespace granula::serve

#endif  // GRANULA_GRANULA_SERVE_FEED_H_
