#ifndef GRANULA_TESTS_HTTP_CLIENT_H_
#define GRANULA_TESTS_HTTP_CLIENT_H_

// The test clients' response reader, over the library's response-head
// parser: tests of the daemons read answers the way the fleet's own
// clients do.

#include <map>
#include <string>

#include "common/result.h"
#include "common/socket.h"
#include "common/strings.h"
#include "granula/serve/http.h"

namespace granula::serve {

struct ClientResponse {
  int status = 0;
  std::map<std::string, std::string> headers;  // lowercased names
  std::string body;
};

// Reads one full response off `socket` (Content-Length framing, matching
// what the server emits).
inline Result<ClientResponse> ReadResponse(TcpSocket& socket) {
  std::string buffer;
  HttpResponseHead head;
  size_t body_start = 0;
  for (;;) {
    GRANULA_ASSIGN_OR_RETURN(
        bool complete, ParseHttpResponseHead(buffer, &head, &body_start));
    if (complete) break;
    if (socket.Read(buffer) != TcpSocket::ReadOutcome::kData) {
      return Status::IoError("connection closed before response headers");
    }
  }
  uint64_t body_len = 0;
  auto it = head.headers.find("content-length");
  if (it != head.headers.end()) {
    GRANULA_ASSIGN_OR_RETURN(body_len, ParseUint64(it->second));
  }
  while (buffer.size() < body_start + body_len) {
    if (socket.Read(buffer) != TcpSocket::ReadOutcome::kData) {
      return Status::IoError("connection closed mid-body");
    }
  }
  return ClientResponse{head.status, std::move(head.headers),
                        buffer.substr(body_start, body_len)};
}

}  // namespace granula::serve

#endif  // GRANULA_TESTS_HTTP_CLIENT_H_
