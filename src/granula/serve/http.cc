#include "granula/serve/http.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <optional>

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

// Splits the head at the front of `buffer` into its first line and its
// headers (names lowercased, values trimmed). False while the blank line
// has not arrived; a Status for a malformed header line or a head over
// kMaxHeaderBytes. `*head_bytes` includes the blank line.
Result<bool> ParseHead(std::string_view buffer, const char* what,
                       std::string_view* first_line,
                       std::map<std::string, std::string>* headers,
                       size_t* head_bytes) {
  const size_t end = buffer.find("\r\n\r\n");
  // The blank line may have arrived in part: up to 3 of its bytes can
  // follow a header block that is still within the limit.
  if (end == std::string_view::npos ? buffer.size() > kMaxHeaderBytes + 3
                                    : end > kMaxHeaderBytes) {
    return Status::InvalidArgument(
        StrFormat("%s header block exceeds 16 KiB", what));
  }
  if (end == std::string_view::npos) return false;
  const std::string_view head = buffer.substr(0, end);
  size_t eol = head.find("\r\n");
  *first_line = head.substr(0, eol);
  while (eol != std::string_view::npos) {
    const size_t start = eol + 2;
    eol = head.find("\r\n", start);
    const std::string_view line = head.substr(
        start, eol == std::string_view::npos ? eol : eol - start);
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return Status::InvalidArgument("malformed header line");
    }
    std::string name = LowerAscii(StrTrim(line.substr(0, colon)));
    if (!IsToken(name)) {
      return Status::InvalidArgument("malformed header name");
    }
    (*headers)[name] = std::string(StrTrim(line.substr(colon + 1)));
  }
  *head_bytes = end + 4;
  return true;
}

// Completes a message after its first line(s) in `out`: Content-Type when
// given, Content-Length when given, `headers`, Connection, the blank line
// and `body`.
std::string SerializeMessage(
    std::string out, std::string_view content_type,
    std::optional<size_t> content_length,
    const std::vector<std::pair<std::string, std::string>>& headers,
    bool keep_alive, std::string_view body) {
  out.reserve(out.size() + 192 + body.size());
  auto append = [&out](std::string_view name, std::string_view value) {
    out.append(name).append(": ").append(value).append("\r\n");
  };
  if (!content_type.empty()) append("Content-Type", content_type);
  if (content_length) append("Content-Length", std::to_string(*content_length));
  for (const auto& [name, value] : headers) append(name, value);
  append("Connection", keep_alive ? "keep-alive" : "close");
  out += "\r\n";
  out.append(body);
  return out;
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
  HttpRequest request;
  std::string_view request_line;
  size_t head_bytes = 0;
  GRANULA_ASSIGN_OR_RETURN(bool complete,
                           ParseHead(buffer, "request", &request_line,
                                     &request.headers, &head_bytes));
  if (!complete) return false;  // need more bytes

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
  size_t total = head_bytes + body_len;
  if (buffer.size() < total) return false;  // body still in flight
  request.body = std::string(buffer.substr(head_bytes, body_len));

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
  const std::string_view reason = HttpStatusReason(response.status);
  // A Transfer-Encoding frames the body itself (the feed's chunks).
  const bool framed = std::any_of(
      response.headers.begin(), response.headers.end(), [](const auto& h) {
        return LowerAscii(h.first) == "transfer-encoding";
      });
  return SerializeMessage(
      StrFormat("HTTP/1.1 %d %.*s\r\n", response.status,
                static_cast<int>(reason.size()), reason.data()),
      response.content_type,
      framed ? std::nullopt : std::optional<size_t>(response.body.size()),
      response.headers, keep_alive, head_only ? "" : response.body);
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

Result<HttpUrl> ParseHttpUrl(std::string_view url, std::string_view scheme,
                             int default_port) {
  const std::string text(url);
  if (!StartsWith(url, scheme)) {
    return Status::InvalidArgument("'" + text + "' does not start with " +
                                   std::string(scheme));
  }
  const std::string_view rest = url.substr(scheme.size());
  const std::string_view authority = rest.substr(0, rest.find('/'));
  const size_t colon = authority.find(':');
  HttpUrl out{std::string(authority.substr(0, colon)), default_port, "/"};
  if (authority.size() < rest.size()) {
    out.path = std::string(rest.substr(authority.size()));
  }
  if (colon != std::string_view::npos) {
    Result<uint64_t> port = ParseUint64(authority.substr(colon + 1));
    out.port = port.ok() && *port <= 65535 ? static_cast<int>(*port) : 0;
  }
  if (out.host.empty()) return Status::InvalidArgument("no host in " + text);
  if (out.port == 0) return Status::InvalidArgument("no valid port in " + text);
  return out;
}

std::string SerializeHttpRequest(
    std::string_view method, const HttpUrl& url, std::string_view content_type,
    std::string_view body,
    const std::vector<std::pair<std::string, std::string>>& headers,
    bool keep_alive) {
  return SerializeMessage(
      StrFormat("%.*s %s HTTP/1.1\r\nHost: %s\r\n",
                static_cast<int>(method.size()), method.data(),
                url.path.c_str(), url.host.c_str()),
      content_type,
      body.empty() ? std::nullopt : std::optional<size_t>(body.size()),
      headers, keep_alive, body);
}

Result<bool> ParseHttpResponseHead(std::string_view buffer,
                                   HttpResponseHead* out, size_t* consumed) {
  HttpResponseHead response;
  std::string_view line;
  GRANULA_ASSIGN_OR_RETURN(
      bool complete,
      ParseHead(buffer, "response", &line, &response.headers, consumed));
  if (!complete) return false;
  // "HTTP/1.x NNN", then nothing or " reason".
  unsigned status = 0;
  if ((!StartsWith(line, "HTTP/1.1 ") && !StartsWith(line, "HTTP/1.0 ")) ||
      line.size() < 12 || (line.size() > 12 && line[12] != ' ') ||
      std::from_chars(line.data() + 9, line.data() + 12, status).ptr !=
          line.data() + 12) {
    return Status::InvalidArgument("malformed status line");
  }
  response.status = static_cast<int>(status);
  *out = std::move(response);
  return true;
}

std::string EncodeHttpChunk(std::string_view data) {
  std::string frame = StrFormat("%zx\r\n", data.size());
  frame.append(data).append("\r\n");
  return frame;
}

Result<bool> HttpChunkDecoder::Decode(std::string_view bytes,
                                      std::string* payload) {
  pending_.append(bytes);
  std::string_view rest(pending_);
  Result<bool> going = true;
  while (going.ok() && *going) {
    const size_t take =
        static_cast<size_t>(std::min<uint64_t>(rest.size(), remaining_));
    payload->append(rest.substr(0, take));
    rest.remove_prefix(take);
    remaining_ -= take;
    if (remaining_ > 0) break;
    // The CRLF after chunk data, or the next size line (whose CR may have
    // arrived without its LF): hex digits, then nothing or ";extension".
    // from_chars takes no sign, whitespace or 0x prefix.
    const size_t eol = rest.find("\r\n");
    if (need_crlf_) {
      if (rest.size() < 2) break;
      if (eol != 0) going = Status::InvalidArgument("chunk without CRLF");
      rest.remove_prefix(2);
      need_crlf_ = false;
    } else if (eol == std::string_view::npos
                   ? rest.size() > kMaxSizeLineBytes + 1
                   : eol > kMaxSizeLineBytes) {
      going = Status::InvalidArgument("chunk size line too long");
    } else if (eol != std::string_view::npos) {
      const std::string_view line = rest.substr(0, eol);
      auto [end, ec] = std::from_chars(line.data(),
                                       line.data() + line.size(),
                                       remaining_, 16);
      if (ec != std::errc() ||
          (end != line.data() + line.size() && *end != ';')) {
        going = Status::InvalidArgument("bad chunk size line");
      } else {
        rest.remove_prefix(eol + 2);
        need_crlf_ = remaining_ > 0;
        if (remaining_ == 0) going = false;  // the terminal chunk
      }
    } else {
      break;
    }
  }
  pending_.erase(0, pending_.size() - rest.size());
  return going;
}

}  // namespace granula::serve
