#ifndef GRANULA_GRANULA_SERVE_HANDLER_H_
#define GRANULA_GRANULA_SERVE_HANDLER_H_

#include <atomic>
#include <cstdint>

#include "granula/serve/http.h"

namespace granula::serve {

// Transport-level counters, owned by the service that fronts the daemon
// so /stats can report them but incremented by the HttpServer (services
// never see a socket).
struct TransportCounters {
  std::atomic<uint64_t> connections{0};
  std::atomic<uint64_t> rejected{0};  // accept queue full -> 503
  std::atomic<uint64_t> timeouts{0};  // slow clients -> 408 / drop
};

// What HttpServer serves: a pure parsed-request -> response function plus
// the transport counters to report against. Implementations must be
// thread-safe — every connection thread calls Handle() concurrently.
// ArchiveService (read-only archive routes), FleetService (live ingest +
// fleet status) and LogFeedService (a streamed log) all sit behind this,
// so one server type runs every daemon.
class HttpHandler {
 public:
  virtual ~HttpHandler() = default;
  virtual HttpResponse Handle(const HttpRequest& request) = 0;
  virtual TransportCounters& transport() = 0;
};

}  // namespace granula::serve

#endif  // GRANULA_GRANULA_SERVE_HANDLER_H_
