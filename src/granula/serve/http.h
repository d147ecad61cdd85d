#ifndef GRANULA_GRANULA_SERVE_HTTP_H_
#define GRANULA_GRANULA_SERVE_HTTP_H_

#include <atomic>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace granula {
class TcpSocket;
}  // namespace granula

namespace granula::serve {

// HTTP/1.1 request/response types and a blocking-free incremental parser
// for the embedded archive server. Scope is deliberately the subset the
// daemon needs: GET/HEAD with headers and optional small bodies, no
// chunked transfer encoding, no multipart. Limits keep a hostile or
// confused client from ballooning memory: 16 KiB of headers, 1 MiB of
// body.

inline constexpr size_t kMaxHeaderBytes = 16 * 1024;
inline constexpr size_t kMaxBodyBytes = 1024 * 1024;

struct HttpRequest {
  std::string method;  // uppercase, e.g. "GET"
  std::string target;  // raw request target, e.g. "/archives?status=complete"
  std::string path;    // decoded path, e.g. "/archives"
  // Decoded path segments, e.g. {"archives", "giraph-bfs-001"}.
  std::vector<std::string> segments;
  // Decoded query parameters; a repeated key keeps the last value.
  std::map<std::string, std::string> query;
  // Header names are lowercased; values are trimmed.
  std::map<std::string, std::string> headers;
  std::string body;

  // Header value or `fallback` when absent.
  std::string Header(const std::string& name,
                     const std::string& fallback = "") const;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  // Extra headers (ETag, Allow, ...). Content-Length/Connection are
  // emitted by SerializeHttpResponse.
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  // Streaming routes (the log feed) set this instead of a body: after
  // routing, the server hands the connection to it and closes it when it
  // returns. It writes its own status line and headers, and should return
  // soon after `stopping` turns true so a drain is not held up.
  std::function<void(TcpSocket& socket, const std::atomic<bool>& stopping)>
      stream;
};

// Incremental request parse over the bytes received so far.
//   - Returns false when `buffer` does not yet hold a complete request
//     (read more and call again).
//   - Returns true and sets `*consumed` (bytes of `buffer` used) when one
//     complete request was parsed into `*out`.
//   - Returns a Status for a malformed or over-limit request; the
//     connection should answer 400 and close.
Result<bool> ParseHttpRequest(std::string_view buffer, HttpRequest* out,
                              size_t* consumed);

// Serializes a full response (status line, headers, body). `head_only`
// omits the body while keeping the true Content-Length, per HEAD
// semantics.
std::string SerializeHttpResponse(const HttpResponse& response,
                                  bool keep_alive, bool head_only = false);

// Percent-decoding ('+' also decodes to space, per form encoding).
// Malformed escapes are kept literally rather than rejected.
std::string UrlDecode(std::string_view s);

// Parses "a=1&b=two" into decoded key/value pairs.
std::map<std::string, std::string> ParseQueryString(std::string_view s);

// Canonical reason phrase for `status` ("Not Found", ...).
std::string_view HttpStatusReason(int status);

}  // namespace granula::serve

#endif  // GRANULA_GRANULA_SERVE_HTTP_H_
