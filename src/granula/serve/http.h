#ifndef GRANULA_GRANULA_SERVE_HTTP_H_
#define GRANULA_GRANULA_SERVE_HTTP_H_

#include <atomic>
#include <cstdint>
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

// The one module that frames and parses HTTP/1.1, for both ends of every
// connection: the daemons' request parser and response serializer, and
// the client side the feed follower (TcpRecordSource) and the alert
// webhook (WebhookDelivery) use — a request serializer, an incremental
// response-head parser, the chunk-frame codec of the log feed, and the
// endpoint parser of --webhook and --source. Scope is deliberately the
// subset those need: requests carry small Content-Length bodies (no
// chunked uploads, no multipart), and only the feed streams chunked.
// Limits keep a hostile or confused peer from ballooning memory: 16 KiB
// of headers, 1 MiB of request body.

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
  // returns. It writes its own head (SerializeHttpResponse of a response
  // whose Transfer-Encoding header frames the body), and should return
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

// ------------------------------------------------------- client side ----

// A peer's address, "SCHEME://HOST[:PORT][/PATH]"; no userinfo, no https.
struct HttpUrl {
  std::string host;
  int port = 80;
  std::string path = "/";  // the request target, leading '/' kept
};

// Parses `url`, which must start with `scheme` ("http://" for --webhook,
// "tcp://" for --source). The host runs to the first ':' or '/' and must
// not be empty; the port is 1..65535, `default_port` when absent (0: the
// port is required).
Result<HttpUrl> ParseHttpUrl(std::string_view url,
                             std::string_view scheme = "http://",
                             int default_port = 80);

// A client request for `url`: request line, Host, Content-Type when given,
// Content-Length when `body` is not empty, `headers`, Connection, body.
std::string SerializeHttpRequest(
    std::string_view method, const HttpUrl& url, std::string_view content_type,
    std::string_view body,
    const std::vector<std::pair<std::string, std::string>>& headers,
    bool keep_alive);

struct HttpResponseHead {
  int status = 0;
  std::map<std::string, std::string> headers;  // as in HttpRequest
};

// ParseHttpRequest's counterpart for a response's status line and headers:
// false until the blank line arrived, then true with `*consumed` the head's
// bytes; a Status for a malformed head or one over 16 KiB.
Result<bool> ParseHttpResponseHead(std::string_view buffer,
                                   HttpResponseHead* out, size_t* consumed);

// One frame of a chunked body: hex size, CRLF, `data` (not empty), CRLF.
std::string EncodeHttpChunk(std::string_view data);

// Decodes a chunked body from transport bytes as they arrive.
class HttpChunkDecoder {
 public:
  static constexpr size_t kMaxSizeLineBytes = 64;  // extensions included

  // Appends the chunk data in `bytes` to `*payload`: true while the body
  // goes on, false after the terminal chunk, a Status for broken framing
  // (a size line that is not hex digits plus an optional ";extension", a
  // size past 64 bits, data not followed by CRLF). Either ends the body.
  Result<bool> Decode(std::string_view bytes, std::string* payload);

 private:
  std::string pending_;     // an incomplete size line or CRLF
  uint64_t remaining_ = 0;  // data bytes of the current chunk still due
  bool need_crlf_ = false;  // the current chunk's CRLF is still due
};

}  // namespace granula::serve

#endif  // GRANULA_GRANULA_SERVE_HTTP_H_
