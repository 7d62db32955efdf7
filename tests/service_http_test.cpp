// HTTP gateway tests: the incremental parser's edge cases (split
// feeds, oversized bodies, chunked refusal, header caps, malformed
// lines) and the served gateway end to end over an ephemeral TCP port
// (healthz, routed ops, keep-alive reuse with a warm cache, pipelined
// ordering, Connection: close, drain). The wire mapping pinned here is
// the one OPERATIONS.md documents: every response body is a full
// shlcp.svc.v1 envelope and the status code is derived from its error
// code.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "service/http.h"
#include "service/server.h"
#include "service/service.h"
#include "util/json.h"

namespace shlcp::svc {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------
// Parser unit tests.

HttpParser::Next feed_one(HttpParser& parser, std::string_view bytes,
                          HttpRequest* request, int* status,
                          std::string* error) {
  parser.feed(bytes);
  return parser.next(request, status, error);
}

TEST(HttpParser, ParsesPostWithBodyAndCustomHeaders) {
  HttpParser parser;
  HttpRequest request;
  int status = 0;
  std::string error;
  const std::string raw =
      "POST /v1/check_coloring HTTP/1.1\r\n"
      "Content-Length: 8\r\n"
      "X-Shlcp-Deadline-Ms: 250\r\n"
      "X-Shlcp-Check: fnv:0123456789abcdef\r\n"
      "\r\n"
      "{\"k\": 2}";
  ASSERT_EQ(feed_one(parser, raw, &request, &status, &error),
            HttpParser::Next::kRequest);
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.target, "/v1/check_coloring");
  EXPECT_EQ(request.body, "{\"k\": 2}");
  EXPECT_TRUE(request.keep_alive);
  EXPECT_EQ(request.deadline_ms, 250u);
  EXPECT_EQ(request.check, "fnv:0123456789abcdef");
  EXPECT_EQ(parser.next(&request, &status, &error),
            HttpParser::Next::kNeedMore);
}

TEST(HttpParser, SplitFeedsAssembleOneRequest) {
  // The head and body arrive in single-byte reads: every prefix must be
  // kNeedMore, the final byte completes the request.
  const std::string raw =
      "GET /healthz HTTP/1.1\r\nConnection: keep-alive\r\n\r\n";
  HttpParser parser;
  HttpRequest request;
  int status = 0;
  std::string error;
  for (std::size_t i = 0; i + 1 < raw.size(); ++i) {
    ASSERT_EQ(feed_one(parser, raw.substr(i, 1), &request, &status, &error),
              HttpParser::Next::kNeedMore)
        << "prefix length " << i + 1;
  }
  ASSERT_EQ(feed_one(parser, raw.substr(raw.size() - 1), &request, &status,
                     &error),
            HttpParser::Next::kRequest);
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.target, "/healthz");
}

TEST(HttpParser, PipelinedRequestsComeBackInOrder) {
  HttpParser parser;
  HttpRequest request;
  int status = 0;
  std::string error;
  parser.feed(
      "POST /v1/a HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}"
      "POST /v1/b HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}");
  ASSERT_EQ(parser.next(&request, &status, &error),
            HttpParser::Next::kRequest);
  EXPECT_EQ(request.target, "/v1/a");
  ASSERT_EQ(parser.next(&request, &status, &error),
            HttpParser::Next::kRequest);
  EXPECT_EQ(request.target, "/v1/b");
  EXPECT_EQ(parser.next(&request, &status, &error),
            HttpParser::Next::kNeedMore);
}

TEST(HttpParser, OversizedBodyFailsWith413) {
  HttpParser parser(/*max_body_bytes=*/64);
  HttpRequest request;
  int status = 0;
  std::string error;
  ASSERT_EQ(feed_one(parser,
                     "POST /v1/x HTTP/1.1\r\nContent-Length: 65\r\n\r\n",
                     &request, &status, &error),
            HttpParser::Next::kError);
  EXPECT_EQ(status, 413);
  EXPECT_TRUE(parser.failed());
  // The failure is sticky: later bytes are swallowed, never parsed
  // into fresh requests (the error reply was already emitted once).
  ASSERT_EQ(feed_one(parser, "GET / HTTP/1.1\r\n\r\n", &request, &status,
                     &error),
            HttpParser::Next::kNeedMore);
  EXPECT_TRUE(parser.failed());
}

TEST(HttpParser, HeaderBlockPastCapFailsWith431) {
  HttpParser parser;
  HttpRequest request;
  int status = 0;
  std::string error;
  std::string raw = "GET / HTTP/1.1\r\n";
  raw += "X-Filler: " + std::string(kMaxHttpHeaderBytes, 'x') + "\r\n";
  ASSERT_EQ(feed_one(parser, raw, &request, &status, &error),
            HttpParser::Next::kError);
  EXPECT_EQ(status, 431);
}

TEST(HttpParser, ChunkedTransferEncodingFailsWith501) {
  HttpParser parser;
  HttpRequest request;
  int status = 0;
  std::string error;
  ASSERT_EQ(feed_one(parser,
                     "POST /v1/x HTTP/1.1\r\n"
                     "Transfer-Encoding: chunked\r\n\r\n",
                     &request, &status, &error),
            HttpParser::Next::kError);
  EXPECT_EQ(status, 501);
}

TEST(HttpParser, MalformedRequestLineFailsWith400) {
  for (const char* raw : {
           "NOT A REQUEST LINE AT ALL EXTRA\r\n\r\n",
           "GET /\r\n\r\n",                          // missing version
           "GET / SPDY/3\r\n\r\n",                   // not HTTP/1.x
           "POST / HTTP/1.1\r\nContent-Length: nan\r\n\r\n",
           "POST / HTTP/1.1\r\nX-Shlcp-Deadline-Ms: soon\r\n\r\n",
       }) {
    HttpParser parser;
    HttpRequest request;
    int status = 0;
    std::string error;
    ASSERT_EQ(feed_one(parser, raw, &request, &status, &error),
              HttpParser::Next::kError)
        << raw;
    EXPECT_EQ(status, 400) << raw;
  }
}

TEST(HttpParser, ConnectionHeaderAndVersionResolveKeepAlive) {
  struct Case {
    const char* raw;
    bool keep_alive;
  };
  for (const Case& c : {
           Case{"GET / HTTP/1.1\r\n\r\n", true},
           Case{"GET / HTTP/1.0\r\n\r\n", false},
           Case{"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", false},
           Case{"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", true},
       }) {
    HttpParser parser;
    HttpRequest request;
    int status = 0;
    std::string error;
    ASSERT_EQ(feed_one(parser, c.raw, &request, &status, &error),
              HttpParser::Next::kRequest)
        << c.raw;
    EXPECT_EQ(request.keep_alive, c.keep_alive) << c.raw;
  }
}

// ---------------------------------------------------------------------
// Gateway end to end.

/// The gateway on 127.0.0.1:0 in a thread; the fixture learns the bound
/// port from the port file (the handshake ChildProcess uses), tears the
/// server down through the cancel token and asserts the drain exit code.
class HttpGateway : public ::testing::Test {
 protected:
  void SetUp() override { boot(); }

  /// Spawns the gateway with the current options_. Split out of SetUp
  /// so subclasses can tune admission caps before booting.
  void boot() {
    options_.cancel = &token_;
    options_.num_threads = 2;
    spec_.http = "127.0.0.1:0";
    spec_.port_file =
        (fs::path(::testing::TempDir()) / "shlcp_http.ports.json").string();
    fs::remove(spec_.port_file);
    server_ = std::thread(
        [this] { exit_code_ = serve_transports(spec_, options_); });
    for (int i = 0; i < 500 && !fs::exists(spec_.port_file); ++i) {
      ::usleep(10'000);
    }
    std::ifstream in(spec_.port_file);
    std::ostringstream ports;
    ports << in.rdbuf();
    if (!ports.str().empty()) {
      port_ = static_cast<int>(Json::parse(ports.str()).at("http").as_int());
    }
    ASSERT_GT(port_, 0) << "gateway never bound";
  }

  void TearDown() override {
    token_.request_stop(StopReason::kCancelRequested);
    server_.join();
    EXPECT_EQ(exit_code_, 0);
  }

  int connect_fd() {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port_));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    return fd;
  }

  static void send_all(int fd, const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
      ASSERT_GT(n, 0);
      off += static_cast<std::size_t>(n);
    }
  }

  /// Consumes exactly one response (headers, then Content-Length body)
  /// from the front of `wire`, reading more from `fd` as needed. Bytes
  /// past the response stay in `wire` -- pipelined responses arrive in
  /// one TCP segment, so per-call buffering would silently drop them.
  /// Returns false on EOF before a complete response.
  static bool read_response(int fd, std::string* wire, int* status,
                            std::string* headers, std::string* body) {
    std::size_t head_end = wire->find("\r\n\r\n");
    while (head_end == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::read(fd, chunk, sizeof chunk);
      if (n <= 0) {
        return false;
      }
      wire->append(chunk, static_cast<std::size_t>(n));
      head_end = wire->find("\r\n\r\n");
    }
    *headers = wire->substr(0, head_end + 4);
    *status = std::atoi(headers->c_str() + headers->find(' ') + 1);
    const std::size_t cl = headers->find("Content-Length: ");
    EXPECT_NE(cl, std::string::npos) << *headers;
    const std::size_t length = static_cast<std::size_t>(
        std::atoll(headers->c_str() + cl + std::strlen("Content-Length: ")));
    while (wire->size() < head_end + 4 + length) {
      char chunk[4096];
      const ssize_t n = ::read(fd, chunk, sizeof chunk);
      if (n <= 0) {
        return false;
      }
      wire->append(chunk, static_cast<std::size_t>(n));
    }
    *body = wire->substr(head_end + 4, length);
    wire->erase(0, head_end + 4 + length);
    return true;
  }

  CancelToken token_;
  ServerOptions options_;
  TransportSpec spec_;
  int port_ = 0;
  std::thread server_;
  int exit_code_ = -1;
};

TEST_F(HttpGateway, HealthzAnswersTheHealthOp) {
  const int fd = connect_fd();
  send_all(fd, "GET /healthz HTTP/1.1\r\n\r\n");
  int status = 0;
  std::string wire;
  std::string headers;
  std::string body;
  ASSERT_TRUE(read_response(fd, &wire, &status, &headers, &body));
  EXPECT_EQ(status, 200);
  const Json resp = Json::parse(body);
  EXPECT_TRUE(resp.at("ok").as_bool()) << body;
  EXPECT_FALSE(resp.at("result").at("draining").as_bool());
  ::close(fd);
}

// GET /v1/<op> is served from the op table's info/health rows.
TEST_F(HttpGateway, GetV1InfoAnswersTheInfoOp) {
  const int fd = connect_fd();
  send_all(fd, "GET /v1/info HTTP/1.1\r\n\r\n");
  int status = 0;
  std::string wire;
  std::string headers;
  std::string body;
  ASSERT_TRUE(read_response(fd, &wire, &status, &headers, &body));
  EXPECT_EQ(status, 200);
  const Json resp = Json::parse(body);
  ASSERT_TRUE(resp.at("ok").as_bool()) << body;
  EXPECT_TRUE(resp.at("result").contains("ops")) << body;
  ::close(fd);
}

TEST_F(HttpGateway, GetV1HealthAnswersTheHealthOp) {
  const int fd = connect_fd();
  send_all(fd, "GET /v1/health HTTP/1.1\r\n\r\n");
  int status = 0;
  std::string wire;
  std::string headers;
  std::string body;
  ASSERT_TRUE(read_response(fd, &wire, &status, &headers, &body));
  EXPECT_EQ(status, 200);
  const Json resp = Json::parse(body);
  ASSERT_TRUE(resp.at("ok").as_bool()) << body;
  EXPECT_FALSE(resp.at("result").at("draining").as_bool());
  EXPECT_FALSE(resp.at("result").contains("ops")) << "health, not info";
  ::close(fd);
}

// Ops that take params are POST-only: a GET of one is a routing miss.
TEST_F(HttpGateway, GetOfAnOpWithParamsIs404) {
  const int fd = connect_fd();
  send_all(fd, "GET /v1/run_decoder HTTP/1.1\r\n\r\n");
  int status = 0;
  std::string wire;
  std::string headers;
  std::string body;
  ASSERT_TRUE(read_response(fd, &wire, &status, &headers, &body));
  EXPECT_EQ(status, 404);
  EXPECT_EQ(Json::parse(body).at("error").at("code").as_string(),
            "unknown_op");
  ::close(fd);
}

TEST_F(HttpGateway, KeepAliveReusesTheConnectionAndTheCache) {
  const int fd = connect_fd();
  const std::string post =
      "POST /v1/check_coloring HTTP/1.1\r\n"
      "Content-Length: 28\r\n\r\n"
      "{\"instance\":\"cycle6\",\"k\":2}\n";
  int status = 0;
  std::string wire;
  std::string headers;
  std::string body;

  send_all(fd, post);
  ASSERT_TRUE(read_response(fd, &wire, &status, &headers, &body));
  EXPECT_EQ(status, 200);
  const Json first = Json::parse(body);
  EXPECT_TRUE(first.at("ok").as_bool()) << body;
  EXPECT_FALSE(first.at("cached").as_bool());
  EXPECT_TRUE(first.at("result").at("colorable").as_bool());

  // Same connection, same payload: the artifact cache must answer and
  // the result must be byte-identical.
  send_all(fd, post);
  ASSERT_TRUE(read_response(fd, &wire, &status, &headers, &body));
  EXPECT_EQ(status, 200);
  const Json second = Json::parse(body);
  EXPECT_TRUE(second.at("cached").as_bool());
  EXPECT_EQ(second.at("result").dump(), first.at("result").dump());
  ::close(fd);
}

TEST_F(HttpGateway, PipelinedRequestsAnswerInOrder) {
  const int fd = connect_fd();
  // An unroutable request, a real op, and healthz, written back to
  // back: the canned 404 must not jump the queue.
  send_all(fd,
           "GET /nowhere HTTP/1.1\r\n\r\n"
           "POST /v1/check_coloring HTTP/1.1\r\n"
           "Content-Length: 27\r\n\r\n"
           "{\"instance\":\"path5\",\"k\":2}\n"
           "GET /healthz HTTP/1.1\r\n\r\n");
  int status = 0;
  std::string wire;
  std::string headers;
  std::string body;
  ASSERT_TRUE(read_response(fd, &wire, &status, &headers, &body));
  EXPECT_EQ(status, 404);
  EXPECT_EQ(Json::parse(body).at("error").at("code").as_string(),
            "unknown_op");
  ASSERT_TRUE(read_response(fd, &wire, &status, &headers, &body));
  EXPECT_EQ(status, 200);
  EXPECT_TRUE(Json::parse(body).at("result").at("colorable").as_bool());
  ASSERT_TRUE(read_response(fd, &wire, &status, &headers, &body));
  EXPECT_EQ(status, 200);
  EXPECT_TRUE(Json::parse(body).at("ok").as_bool());
  ::close(fd);
}

TEST_F(HttpGateway, UnknownRouteKeepsTheConnectionUsable) {
  const int fd = connect_fd();
  send_all(fd, "GET /bogus HTTP/1.1\r\n\r\n");
  int status = 0;
  std::string wire;
  std::string headers;
  std::string body;
  ASSERT_TRUE(read_response(fd, &wire, &status, &headers, &body));
  EXPECT_EQ(status, 404);
  // A 404 is a routing miss, not a protocol violation: the next request
  // on the same connection must still be served.
  send_all(fd, "GET /healthz HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(read_response(fd, &wire, &status, &headers, &body));
  EXPECT_EQ(status, 200);
  ::close(fd);
}

TEST_F(HttpGateway, UnknownOpIs404WithTheWireErrorBody) {
  const int fd = connect_fd();
  send_all(fd,
           "POST /v1/frobnicate HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}");
  int status = 0;
  std::string wire;
  std::string headers;
  std::string body;
  ASSERT_TRUE(read_response(fd, &wire, &status, &headers, &body));
  EXPECT_EQ(status, 404);
  EXPECT_EQ(Json::parse(body).at("error").at("code").as_string(),
            "unknown_op");
  ::close(fd);
}

TEST_F(HttpGateway, BadParamsBodyIs400) {
  const int fd = connect_fd();
  send_all(fd,
           "POST /v1/check_coloring HTTP/1.1\r\n"
           "Content-Length: 9\r\n\r\nnot json!");
  int status = 0;
  std::string wire;
  std::string headers;
  std::string body;
  ASSERT_TRUE(read_response(fd, &wire, &status, &headers, &body));
  EXPECT_EQ(status, 400);
  EXPECT_EQ(Json::parse(body).at("error").at("code").as_string(),
            "invalid_request");
  ::close(fd);
}

TEST_F(HttpGateway, ConnectionCloseIsHonored) {
  const int fd = connect_fd();
  send_all(fd, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
  int status = 0;
  std::string wire;
  std::string headers;
  std::string body;
  ASSERT_TRUE(read_response(fd, &wire, &status, &headers, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(headers.find("Connection: close"), std::string::npos);
  // The server closes after the response: the next read must be EOF.
  char byte;
  EXPECT_EQ(::read(fd, &byte, 1), 0);
  ::close(fd);
}

/// The gateway with a per-connection in-flight cap of one: the second
/// of two pipelined requests is always shed.
class HttpGatewayShed : public HttpGateway {
 protected:
  void SetUp() override {
    options_.conn_inflight_max = 1;
    boot();
  }
};

TEST_F(HttpGatewayShed, ShedIs429WithRetryAfterConsistentWithTheBody) {
  // Two pipelined POSTs arrive in one segment; with conn_inflight_max=1
  // both are admitted-or-shed in the same poll round, so the second is
  // refused deterministically -- no timing involved. The HTTP mapping
  // under test: status 429, a Retry-After header in *integral seconds*,
  // and the header agreeing (ceiling division) with the JSONL envelope's
  // retry_after_ms for the very same shed decision.
  const int fd = connect_fd();
  const std::string body_json =
      "{\"instance\": \"cycle6\", \"k\": 2}";
  const std::string post =
      "POST /v1/check_coloring HTTP/1.1\r\nContent-Length: " +
      std::to_string(body_json.size()) + "\r\n\r\n" + body_json;
  send_all(fd, post + post);

  int status = 0;
  std::string wire;
  std::string headers;
  std::string body;
  ASSERT_TRUE(read_response(fd, &wire, &status, &headers, &body));
  EXPECT_EQ(status, 200) << body;

  ASSERT_TRUE(read_response(fd, &wire, &status, &headers, &body));
  EXPECT_EQ(status, 429) << body;
  const Json envelope = Json::parse(body);
  ASSERT_FALSE(envelope.at("ok").as_bool());
  const Json& error = envelope.at("error");
  EXPECT_EQ(error.at("code").as_string(), "overloaded");
  ASSERT_TRUE(error.contains("retry_after_ms"));
  const std::int64_t retry_after_ms = error.at("retry_after_ms").as_int();
  EXPECT_GT(retry_after_ms, 0);

  const std::size_t at = headers.find("Retry-After: ");
  ASSERT_NE(at, std::string::npos) << headers;
  const std::size_t value_start = at + std::strlen("Retry-After: ");
  const std::size_t value_end = headers.find("\r\n", value_start);
  ASSERT_NE(value_end, std::string::npos);
  const std::string value =
      headers.substr(value_start, value_end - value_start);
  ASSERT_FALSE(value.empty());
  for (const char c : value) {
    EXPECT_TRUE(c >= '0' && c <= '9')
        << "Retry-After must be integral seconds, got '" << value << "'";
  }
  EXPECT_EQ(std::atoll(value.c_str()), (retry_after_ms + 999) / 1000);
  ::close(fd);
}

TEST_F(HttpGateway, OversizedBodyIs413AndCloses) {
  // The fixture's server runs with the default frame cap; claim more
  // than that and the parser refuses at the header stage.
  const int fd = connect_fd();
  send_all(fd, "POST /v1/x HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n");
  int status = 0;
  std::string wire;
  std::string headers;
  std::string body;
  ASSERT_TRUE(read_response(fd, &wire, &status, &headers, &body));
  EXPECT_EQ(status, 413);
  char byte;
  EXPECT_EQ(::read(fd, &byte, 1), 0);
  ::close(fd);
}

}  // namespace
}  // namespace shlcp::svc
