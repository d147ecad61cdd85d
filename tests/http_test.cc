#include "granula/serve/http.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"

namespace granula::serve {
namespace {

Result<bool> Parse(std::string_view buffer, HttpRequest* request) {
  size_t consumed = 0;
  return ParseHttpRequest(buffer, request, &consumed);
}

TEST(HttpParseTest, SimpleGet) {
  HttpRequest request;
  size_t consumed = 0;
  const std::string wire = "GET /archives HTTP/1.1\r\nHost: localhost\r\n\r\n";
  auto parsed = ParseHttpRequest(wire, &request, &consumed);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_TRUE(*parsed);
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.path, "/archives");
  ASSERT_EQ(request.segments.size(), 1u);
  EXPECT_EQ(request.segments[0], "archives");
  EXPECT_TRUE(request.query.empty());
  EXPECT_EQ(request.Header("Host"), "localhost");
  EXPECT_EQ(consumed, wire.size());
}

TEST(HttpParseTest, QueryStringDecoding) {
  HttpRequest request;
  auto parsed = Parse(
      "GET /archives?platform=giraph&since=100&label=a%20b+c HTTP/1.1\r\n"
      "\r\n",
      &request);
  ASSERT_TRUE(parsed.ok() && *parsed);
  EXPECT_EQ(request.path, "/archives");
  EXPECT_EQ(request.query.at("platform"), "giraph");
  EXPECT_EQ(request.query.at("since"), "100");
  EXPECT_EQ(request.query.at("label"), "a b c");
}

TEST(HttpParseTest, PathSegmentsPercentDecoded) {
  HttpRequest request;
  auto parsed = Parse(
      "GET /archives/run-1/subtree/GiraphJob/Process%20Graph HTTP/1.1\r\n"
      "\r\n",
      &request);
  ASSERT_TRUE(parsed.ok() && *parsed);
  ASSERT_EQ(request.segments.size(), 5u);
  EXPECT_EQ(request.segments[1], "run-1");
  EXPECT_EQ(request.segments[4], "Process Graph");
}

TEST(HttpParseTest, HeaderNamesCaseInsensitive) {
  HttpRequest request;
  auto parsed = Parse(
      "GET / HTTP/1.1\r\nIf-None-Match: \"abc\"\r\nACCEPT: text/json\r\n\r\n",
      &request);
  ASSERT_TRUE(parsed.ok() && *parsed);
  EXPECT_EQ(request.Header("if-none-match"), "\"abc\"");
  EXPECT_EQ(request.Header("If-None-Match"), "\"abc\"");
  EXPECT_EQ(request.Header("Accept"), "text/json");
  EXPECT_EQ(request.Header("absent", "fallback"), "fallback");
}

TEST(HttpParseTest, IncompleteRequestNeedsMoreBytes) {
  HttpRequest request;
  auto parsed = Parse("GET /archives HTTP/1.1\r\nHost: lo", &request);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(*parsed);
}

TEST(HttpParseTest, BodyFraming) {
  HttpRequest request;
  size_t consumed = 0;
  const std::string full =
      "GET /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello<next>";
  // Header complete but body short: not ready yet.
  auto partial = ParseHttpRequest(full.substr(0, full.size() - 9), &request,
                                  &consumed);
  ASSERT_TRUE(partial.ok());
  EXPECT_FALSE(*partial);
  auto parsed = ParseHttpRequest(full, &request, &consumed);
  ASSERT_TRUE(parsed.ok() && *parsed);
  EXPECT_EQ(request.body, "hello");
  EXPECT_EQ(full.substr(consumed), "<next>");
}

TEST(HttpParseTest, PipelinedRequestsConsumeExactly) {
  const std::string two =
      "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
  HttpRequest request;
  size_t consumed = 0;
  auto first = ParseHttpRequest(two, &request, &consumed);
  ASSERT_TRUE(first.ok() && *first);
  EXPECT_EQ(request.path, "/a");
  auto second = ParseHttpRequest(std::string_view(two).substr(consumed),
                                 &request, &consumed);
  ASSERT_TRUE(second.ok() && *second);
  EXPECT_EQ(request.path, "/b");
}

TEST(HttpParseTest, MalformedRequests) {
  HttpRequest request;
  EXPECT_FALSE(Parse("NONSENSE\r\n\r\n", &request).ok());
  EXPECT_FALSE(Parse("GET /x HTTP/2\r\n\r\n", &request).ok());
  EXPECT_FALSE(Parse("GET noslash HTTP/1.1\r\n\r\n", &request).ok());
  EXPECT_FALSE(Parse("GET /x HTTP/1.1\r\nbadheader\r\n\r\n", &request).ok());
  EXPECT_FALSE(
      Parse("GET /x HTTP/1.1\r\nContent-Length: nan\r\n\r\n", &request).ok());
  EXPECT_FALSE(
      Parse("GET /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", &request)
          .ok());
}

TEST(HttpParseTest, OversizedHeaderBlockRejected) {
  std::string huge = "GET / HTTP/1.1\r\nX-Pad: ";
  huge.append(kMaxHeaderBytes + 10, 'a');
  HttpRequest request;
  // Even without the terminator the parser bails instead of buffering
  // forever.
  EXPECT_FALSE(Parse(huge, &request).ok());
  huge += "\r\n\r\n";
  EXPECT_FALSE(Parse(huge, &request).ok());
}

TEST(HttpParseTest, OversizedBodyRejected) {
  HttpRequest request;
  auto parsed = Parse(
      "GET /x HTTP/1.1\r\nContent-Length: 10000000\r\n\r\n", &request);
  EXPECT_FALSE(parsed.ok());
}

// What the server relies on from an accepted request, whatever the bytes:
// the parse stayed inside the buffer, the method is a token, the target is
// origin-form and the body is within the limit. And the parse is
// incremental: every proper prefix of the consumed bytes asks for more
// bytes instead of failing, so a request trickling in byte by byte is
// judged like one that arrived whole. Returns whether `buffer` held an
// accepted request.
bool ExpectSaneAcceptance(const std::string& buffer,
                          size_t check_prefixes_from = 0) {
  HttpRequest request;
  size_t consumed = 0;
  auto parsed = ParseHttpRequest(buffer, &request, &consumed);
  if (!parsed.ok() || !*parsed) return false;
  EXPECT_LE(consumed, buffer.size());
  EXPECT_FALSE(request.method.empty());
  for (unsigned char c : request.method) {
    EXPECT_TRUE(c > ' ' && c < 127 &&
                std::string_view("()<>@,;:\\\"/[]?={}").find(c) ==
                    std::string_view::npos)
        << "method byte " << static_cast<int>(c);
  }
  EXPECT_TRUE(!request.target.empty() && request.target[0] == '/')
      << request.target;
  EXPECT_LE(request.body.size(), kMaxBodyBytes);
  for (size_t n = check_prefixes_from; n < consumed && n < buffer.size();
       ++n) {
    HttpRequest partial;
    size_t partial_consumed = 0;
    auto prefix = ParseHttpRequest(std::string_view(buffer).substr(0, n),
                                   &partial, &partial_consumed);
    EXPECT_TRUE(prefix.ok() && !*prefix)
        << "prefix of " << n << " of " << consumed << " bytes: "
        << (prefix.ok() ? "accepted" : prefix.status().ToString());
  }
  return true;
}

// One of `seeds` with one to four random edits: a flipped byte, a
// truncation, or one of `inserts` spliced in.
std::string Mutate(const std::vector<std::string>& seeds,
                   const std::vector<std::string>& inserts, Rng& rng) {
  std::string buffer = seeds[rng.NextBounded(seeds.size())];
  const uint64_t mutations = 1 + rng.NextBounded(4);
  for (uint64_t m = 0; m < mutations; ++m) {
    const size_t at = rng.NextBounded(buffer.size() + 1);
    switch (rng.NextBounded(3)) {
      case 0:  // flip a byte
        if (at < buffer.size()) {
          buffer[at] = static_cast<char>(rng.NextBounded(256));
        }
        break;
      case 1:  // truncate
        buffer.resize(at);
        break;
      default:  // insert framing bytes or a hostile header
        buffer.insert(at, inserts[rng.NextBounded(inserts.size())]);
        break;
    }
  }
  return buffer;
}

TEST(HttpParseTest, MutatedRequestsNeverCrashOrOverreach) {
  const std::vector<std::string> seeds = {
      "GET /archives?platform=giraph&status=complete HTTP/1.1\r\n"
      "Host: localhost\r\nAccept: application/json\r\n\r\n",
      "HEAD /archives/a%20b/subtree/1/2 HTTP/1.0\r\n\r\n",
      "POST /jobs/x/records HTTP/1.1\r\nContent-Length: 11\r\n"
      "Connection: close\r\n\r\n{\"seq\":1}\n\n",
      "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nRange: bytes=0-\r\n\r\n",
  };
  const std::vector<std::string> inserts = {
      "\r", "\n", "\r\n", ":", "\r\n\r\n", " ", "%", "\0",
      "Content-Length: 1048577\r\n", "Content-Length: 99999999999999999999\r\n",
      "Content-Length: 18446744073709551615\r\n", "Content-Length: -1\r\n",
      "Content-Length: 1048576\r\n", "Transfer-Encoding: chunked\r\n"};
  Rng rng(18);
  int accepted = 0;
  for (int round = 0; round < 20000; ++round) {
    const std::string buffer = Mutate(seeds, inserts, rng);
    SCOPED_TRACE(testing::Message() << "round " << round);
    if (ExpectSaneAcceptance(buffer)) ++accepted;
    if (testing::Test::HasFailure()) return;
  }
  // The acceptance checks must have had something to check.
  EXPECT_GT(accepted, 1000);
}

// The client side's counterpart of ExpectSaneAcceptance, for a response
// head and the chunked body behind it: an accepted head stayed inside the
// buffer, its status has three digits, and every proper prefix asks for
// more bytes. The body decodes the same whole or byte by byte, and never
// yields more payload than it had bytes. Returns whether the head was
// accepted.
bool ExpectSaneResponse(const std::string& buffer) {
  HttpResponseHead head;
  size_t consumed = 0;
  auto parsed = ParseHttpResponseHead(buffer, &head, &consumed);
  if (!parsed.ok() || !*parsed) return false;
  EXPECT_LE(consumed, buffer.size());
  EXPECT_TRUE(head.status >= 0 && head.status <= 999) << head.status;
  for (size_t n = 0; n < consumed; ++n) {
    HttpResponseHead partial;
    size_t partial_consumed = 0;
    auto prefix = ParseHttpResponseHead(std::string_view(buffer).substr(0, n),
                                        &partial, &partial_consumed);
    EXPECT_TRUE(prefix.ok() && !*prefix)
        << "prefix of " << n << " of " << consumed << " bytes: "
        << (prefix.ok() ? "accepted" : prefix.status().ToString());
  }

  const std::string_view body = std::string_view(buffer).substr(consumed);
  HttpChunkDecoder whole;
  std::string whole_payload;
  Result<bool> whole_going = whole.Decode(body, &whole_payload);
  HttpChunkDecoder trickle;
  std::string trickle_payload;
  Result<bool> trickle_going = true;
  for (size_t i = 0; i < body.size() && trickle_going.ok() && *trickle_going;
       ++i) {
    trickle_going = trickle.Decode(body.substr(i, 1), &trickle_payload);
  }
  EXPECT_EQ(whole_going.ok(), trickle_going.ok());
  if (whole_going.ok() && trickle_going.ok()) {
    EXPECT_EQ(*whole_going, *trickle_going);
  }
  EXPECT_EQ(whole_payload, trickle_payload);
  EXPECT_LE(whole_payload.size(), body.size());
  return true;
}

TEST(HttpParseTest, MutatedResponsesNeverCrashOrOverreach) {
  const std::vector<std::string> seeds = {
      "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n"
      "Transfer-Encoding: chunked\r\nConnection: keep-alive\r\n\r\n"
      "5\r\nab\ncd\r\n3;x=y\r\nef\n\r\n",
      "HTTP/1.1 200 OK\r\n\r\n1a\r\nabcdefghijklmnopqrstuvwxyz\r\n0\r\n\r\n",
      "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n",
      "HTTP/1.0 503\r\n\r\n",
  };
  const std::vector<std::string> inserts = {
      "\r", "\n", "\r\n", ":", "\r\n\r\n", " ", ";", "-", "+", "0x",
      "-1\r\n", "ffffffffffffffff", "10000000000000000", "0\r\n\r\n",
      "HTTP/1.1 ", std::string(70, 'f')};
  Rng rng(28);
  int accepted = 0;
  for (int round = 0; round < 20000; ++round) {
    const std::string buffer = Mutate(seeds, inserts, rng);
    SCOPED_TRACE(testing::Message() << "round " << round);
    if (ExpectSaneResponse(buffer)) ++accepted;
    if (testing::Test::HasFailure()) return;
  }
  EXPECT_GT(accepted, 1000);
}

// A header block of exactly the limit is accepted, so the prefixes that
// hold all of it but only part of the blank line must wait, not fail.
TEST(HttpParseTest, HeaderBlockAtTheLimitTricklesIn) {
  std::string wire = "GET / HTTP/1.1\r\nX-Pad: ";
  wire.append(kMaxHeaderBytes - wire.size(), 'a');
  ASSERT_EQ(wire.size(), kMaxHeaderBytes);
  wire += "\r\n\r\n";
  EXPECT_TRUE(ExpectSaneAcceptance(wire, kMaxHeaderBytes - 8));
}

TEST(HttpSerializeTest, ResponseRoundTrip) {
  HttpResponse response;
  response.status = 200;
  response.body = "{\"ok\":true}";
  response.headers.emplace_back("ETag", "\"g1\"");
  const std::string wire = SerializeHttpResponse(response, true);
  EXPECT_NE(wire.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Type: application/json\r\n"),
            std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 11\r\n"), std::string::npos);
  EXPECT_NE(wire.find("ETag: \"g1\"\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: keep-alive\r\n"), std::string::npos);
  EXPECT_TRUE(wire.size() >= 11 &&
              wire.compare(wire.size() - 11, 11, response.body) == 0);
}

TEST(HttpSerializeTest, HeadKeepsContentLengthDropsBody) {
  HttpResponse response;
  response.body = "0123456789";
  const std::string wire =
      SerializeHttpResponse(response, false, /*head_only=*/true);
  EXPECT_NE(wire.find("Content-Length: 10\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: close\r\n"), std::string::npos);
  EXPECT_EQ(wire.substr(wire.size() - 4), "\r\n\r\n");
}

TEST(HttpSerializeTest, ReasonPhrases) {
  EXPECT_EQ(HttpStatusReason(304), "Not Modified");
  EXPECT_EQ(HttpStatusReason(404), "Not Found");
  EXPECT_EQ(HttpStatusReason(408), "Request Timeout");
  EXPECT_EQ(HttpStatusReason(503), "Service Unavailable");
}

TEST(HttpClientTest, ResponseHeadParsesStatusAndHeaders) {
  const std::string wire =
      "HTTP/1.1 503 Service Unavailable\r\nRetry-After:  1 \r\n\r\nrest";
  HttpResponseHead head;
  size_t consumed = 0;
  auto parsed = ParseHttpResponseHead(wire, &head, &consumed);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_TRUE(*parsed);
  EXPECT_EQ(head.status, 503);
  EXPECT_EQ(head.headers["retry-after"], "1");
  EXPECT_EQ(consumed, wire.size() - 4);

  for (const char* bad :
       {"HTTP/2 200 OK\r\n\r\n", "HTTP/1.1 20 OK\r\n\r\n",
        "HTTP/1.1 2000 OK\r\n\r\n", "HTTP/1.1 -20 OK\r\n\r\n",
        "ICY 200 OK\r\n\r\n", "HTTP/1.1 200 OK\r\nno colon\r\n\r\n"}) {
    EXPECT_FALSE(ParseHttpResponseHead(bad, &head, &consumed).ok()) << bad;
  }
  std::string huge = "HTTP/1.1 200 OK\r\nX-Pad: ";
  huge.append(kMaxHeaderBytes, 'a');
  EXPECT_FALSE(ParseHttpResponseHead(huge, &head, &consumed).ok());
}

// The size line is hex digits, then nothing or a ";extension". A sign
// would otherwise turn "-1" into a 2^64-1 byte chunk that swallows the
// rest of the stream as payload.
TEST(HttpClientTest, ChunkSizeLineIsHexDigitsOnly) {
  auto decode = [](const std::string& wire, std::string* payload) {
    HttpChunkDecoder decoder;
    return decoder.Decode(wire, payload);
  };
  std::string payload;
  auto extension = decode("5;name=value\r\nhello\r\n", &payload);
  ASSERT_TRUE(extension.ok() && *extension) << extension.status();
  EXPECT_EQ(payload, "hello");
  auto upper = decode("1A\r\n" + std::string(26, 'z') + "\r\n", &payload);
  EXPECT_TRUE(upper.ok() && *upper);
  auto terminal = decode("0\r\n\r\n", &payload);
  EXPECT_TRUE(terminal.ok() && !*terminal);
  for (const char* bad :
       {"-1\r\nrest of the stream\n", "+5\r\nhello\r\n", " 5\r\nhello\r\n",
        "0x5\r\nhello\r\n", "5 \r\nhello\r\n", "5junk\r\nhello\r\n",
        "\r\nhello\r\n", "10000000000000000\r\n", "5\r\nhelloXX"}) {
    std::string swallowed;
    EXPECT_FALSE(decode(bad, &swallowed).ok()) << bad;
    EXPECT_LE(swallowed.size(), 5u) << bad;
  }
  // A size line that never ends is refused once it passes the limit.
  std::string endless(HttpChunkDecoder::kMaxSizeLineBytes + 1, '0');
  EXPECT_TRUE(decode(endless, &payload).ok());
  EXPECT_FALSE(decode(endless + "0", &payload).ok());
}

TEST(HttpUrlDecodeTest, MalformedEscapesKeptLiterally) {
  EXPECT_EQ(UrlDecode("a%2Fb"), "a/b");
  EXPECT_EQ(UrlDecode("a%2"), "a%2");
  EXPECT_EQ(UrlDecode("a%zz"), "a%zz");
  EXPECT_EQ(UrlDecode("%41+%42"), "A B");
}

}  // namespace
}  // namespace granula::serve
