#include "granula/serve/http.h"

#include <algorithm>
#include <cctype>

#include "common/strings.h"

namespace granula::serve {

namespace {

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

std::string LowerAscii(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool IsToken(std::string_view s) {
  if (s.empty()) return false;
  for (unsigned char c : s) {
    if (c <= ' ' || c >= 127) return false;
    if (std::string_view("()<>@,;:\\\"/[]?={}").find(static_cast<char>(c)) !=
        std::string_view::npos) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string HttpRequest::Header(const std::string& name,
                                const std::string& fallback) const {
  auto it = headers.find(LowerAscii(name));
  return it == headers.end() ? fallback : it->second;
}

std::string UrlDecode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c == '+') {
      out.push_back(' ');
    } else if (c == '%' && i + 2 < s.size() && HexDigit(s[i + 1]) >= 0 &&
               HexDigit(s[i + 2]) >= 0) {
      out.push_back(
          static_cast<char>(HexDigit(s[i + 1]) * 16 + HexDigit(s[i + 2])));
      i += 2;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::map<std::string, std::string> ParseQueryString(std::string_view s) {
  std::map<std::string, std::string> out;
  size_t pos = 0;
  while (pos <= s.size()) {
    size_t amp = s.find('&', pos);
    std::string_view pair =
        s.substr(pos, amp == std::string_view::npos ? amp : amp - pos);
    if (!pair.empty()) {
      size_t eq = pair.find('=');
      if (eq == std::string_view::npos) {
        out[UrlDecode(pair)] = "";
      } else {
        out[UrlDecode(pair.substr(0, eq))] = UrlDecode(pair.substr(eq + 1));
      }
    }
    if (amp == std::string_view::npos) break;
    pos = amp + 1;
  }
  return out;
}

Result<bool> ParseHttpRequest(std::string_view buffer, HttpRequest* out,
                              size_t* consumed) {
  size_t header_end = buffer.find("\r\n\r\n");
  if (header_end == std::string_view::npos) {
    // The blank line may have arrived in part: up to 3 of its bytes can
    // follow a header block that is still within the limit.
    if (buffer.size() > kMaxHeaderBytes + 3) {
      return Status::InvalidArgument("request header block exceeds 16 KiB");
    }
    return false;  // need more bytes
  }
  if (header_end > kMaxHeaderBytes) {
    return Status::InvalidArgument("request header block exceeds 16 KiB");
  }
  std::string_view head = buffer.substr(0, header_end);

  HttpRequest request;

  size_t line_end = head.find("\r\n");
  std::string_view request_line =
      head.substr(0, line_end == std::string_view::npos ? head.size()
                                                        : line_end);
  size_t sp1 = request_line.find(' ');
  size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    return Status::InvalidArgument("malformed request line");
  }
  request.method = std::string(request_line.substr(0, sp1));
  request.target = std::string(request_line.substr(sp1 + 1, sp2 - sp1 - 1));
  std::string_view version = request_line.substr(sp2 + 1);
  if (!IsToken(request.method) || request.target.empty() ||
      request.target[0] != '/') {
    return Status::InvalidArgument("malformed request line");
  }
  if (version != "HTTP/1.1" && version != "HTTP/1.0") {
    return Status::InvalidArgument(
        StrFormat("unsupported HTTP version '%.*s'",
                  static_cast<int>(version.size()), version.data()));
  }

  // Headers.
  size_t pos = line_end == std::string_view::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    size_t end = head.find("\r\n", pos);
    std::string_view line = head.substr(
        pos, end == std::string_view::npos ? head.size() - pos : end - pos);
    size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return Status::InvalidArgument("malformed header line");
    }
    std::string name = LowerAscii(StrTrim(line.substr(0, colon)));
    if (!IsToken(name)) {
      return Status::InvalidArgument("malformed header name");
    }
    request.headers[name] = std::string(StrTrim(line.substr(colon + 1)));
    if (end == std::string_view::npos) break;
    pos = end + 2;
  }

  // Body (Content-Length framing only; the daemon has no chunked uploads).
  size_t body_len = 0;
  auto it = request.headers.find("content-length");
  if (it != request.headers.end()) {
    auto parsed = ParseUint64(it->second);
    if (!parsed.ok()) {
      return Status::InvalidArgument(
          StrFormat("bad Content-Length '%s'", it->second.c_str()));
    }
    if (*parsed > kMaxBodyBytes) {
      return Status::InvalidArgument("request body exceeds 1 MiB");
    }
    body_len = static_cast<size_t>(*parsed);
  }
  if (request.headers.count("transfer-encoding") > 0) {
    return Status::InvalidArgument("chunked request bodies are unsupported");
  }
  size_t total = header_end + 4 + body_len;
  if (buffer.size() < total) return false;  // body still in flight
  request.body = std::string(buffer.substr(header_end + 4, body_len));

  // Split the target into decoded path + query.
  size_t qmark = request.target.find('?');
  std::string_view raw_path(request.target);
  if (qmark != std::string::npos) {
    request.query = ParseQueryString(
        std::string_view(request.target).substr(qmark + 1));
    raw_path = raw_path.substr(0, qmark);
  }
  request.path = UrlDecode(raw_path);
  for (std::string_view part : StrSplit(raw_path.substr(1), '/')) {
    if (part.empty()) continue;
    request.segments.push_back(UrlDecode(part));
  }

  *out = std::move(request);
  *consumed = total;
  return true;
}

std::string SerializeHttpResponse(const HttpResponse& response,
                                  bool keep_alive, bool head_only) {
  std::string out;
  out.reserve(256 + (head_only ? 0 : response.body.size()));
  out += StrFormat("HTTP/1.1 %d ", response.status);
  out += HttpStatusReason(response.status);
  out += "\r\n";
  if (!response.content_type.empty()) {
    out += "Content-Type: ";
    out += response.content_type;
    out += "\r\n";
  }
  out += StrFormat("Content-Length: %zu\r\n", response.body.size());
  for (const auto& [name, value] : response.headers) {
    out += name;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  out += "\r\n";
  if (!head_only) out += response.body;
  return out;
}

std::string_view HttpStatusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 304: return "Not Modified";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 409: return "Conflict";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return status < 400 ? "OK" : "Error";
  }
}

}  // namespace granula::serve
