#include "service/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "nbhd/checkpoint.h"
#include "service/cache.h"
#include "service/service.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/format.h"
#include "util/rng.h"

namespace shlcp::svc {

namespace {

bool code_is_retriable(const std::string& code) {
  // invalid_request is retriable here even though it names a client
  // bug: this client constructs every envelope itself, so a server
  // that failed to *parse* one can only have received corrupted bytes.
  // (Corruption inside op/params is caught by the "check" digest and
  // refused with "integrity" instead -- the envelope is the one layer
  // the digest cannot cover.) A genuine schema mismatch still surfaces
  // after max_attempts; it just pays the bounded retry budget first.
  return code == kErrOverloaded || code == kErrDraining ||
         code == kErrDeadline || code == kErrIntegrity ||
         code == kErrBadFrame || code == kErrInvalidRequest;
}

}  // namespace

Client::Client(Connector connector, ClientOptions options)
    : connector_(std::move(connector)), options_(std::move(options)) {}

Client::~Client() = default;

Client::Connector Client::unix_connector(std::string path, ChaosPlan chaos) {
  return [path = std::move(path),
          chaos = std::move(chaos)]() -> std::unique_ptr<FaultyTransport> {
    // CLOEXEC: a supervisor may fork+exec backends from the process
    // holding this connection; the child must not inherit it.
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      return nullptr;
    }
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      ::close(fd);
      return nullptr;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    int rc;
    do {
      rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) {
      ::close(fd);
      return nullptr;
    }
    return std::make_unique<FaultyTransport>(fd, fd, chaos);
  };
}

Client::Connector Client::tcp_connector(std::string host, int port,
                                        ChaosPlan chaos) {
  return [host = std::move(host), port,
          chaos = std::move(chaos)]() -> std::unique_ptr<FaultyTransport> {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      return nullptr;
    }
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      ::close(fd);
      return nullptr;
    }
    int rc;
    do {
      rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) {
      ::close(fd);
      return nullptr;
    }
    // Request/response protocol: never trade latency for coalescing.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return std::make_unique<FaultyTransport>(fd, fd, chaos);
  };
}

Client::Connector Client::connector_for(const std::string& target,
                                        ChaosPlan chaos) {
  if (target.rfind("unix:", 0) == 0) {
    const std::string path = target.substr(5);
    if (path.empty()) {
      return {};
    }
    return unix_connector(path, std::move(chaos));
  }
  if (target.rfind("tcp:", 0) == 0) {
    const std::string hostport = target.substr(4);
    const std::size_t colon = hostport.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= hostport.size()) {
      return {};
    }
    const std::string host = hostport.substr(0, colon);
    const std::string port_part = hostport.substr(colon + 1);
    if (port_part.find_first_not_of("0123456789") != std::string::npos ||
        port_part.size() > 5) {
      return {};
    }
    const int port = std::atoi(port_part.c_str());
    if (port <= 0 || port > 65535) {
      return {};
    }
    return tcp_connector(host, port, std::move(chaos));
  }
  if (target.empty()) {
    return {};
  }
  return unix_connector(target, std::move(chaos));  // bare unix path
}

bool Client::ensure_connected() {
  if (transport_ != nullptr && !transport_->dead()) {
    return true;
  }
  transport_ = connector_();
  reader_ = std::make_unique<FrameReader>(options_.max_frame_bytes);
  if (transport_ == nullptr) {
    stats_.transport_errors += 1;
    return false;
  }
  return true;
}

void Client::drop_connection() {
  if (transport_ != nullptr) {
    transport_.reset();
    reader_.reset();
    stats_.reconnects += 1;
  }
}

Client::Attempt Client::attempt_once(const std::string& body,
                                     const std::string& wire_id,
                                     CallResult* out,
                                     std::int64_t* retry_after_ms) {
  out->fail_kind = CallResult::FailKind::kNone;
  if (!ensure_connected()) {
    out->fail_kind = CallResult::FailKind::kConnRefused;
    return Attempt::kRetriable;  // connector failed; nothing to drop
  }
  if (!transport_->write_all(encode_frame(body))) {
    stats_.transport_errors += 1;
    drop_connection();
    out->fail_kind = CallResult::FailKind::kTransport;
    return Attempt::kRetriableReconnect;
  }
  const std::uint64_t deadline = mono_ms() + options_.timeout_ms;
  std::string frame;
  std::string error;
  for (;;) {
    // Drain every frame already buffered before touching the wire: a
    // chopped read may have delivered two responses in one gulp.
    for (;;) {
      const FrameReader::Next next = reader_->next(&frame, &error);
      if (next == FrameReader::Next::kNeedMore) {
        break;
      }
      if (next == FrameReader::Next::kError) {
        // Framing lost -- most likely injected corruption of a length
        // prefix. Only a reconnect can resynchronize.
        stats_.transport_errors += 1;
        drop_connection();
        out->error_detail = format("framing lost: %s", error.c_str());
        out->fail_kind = CallResult::FailKind::kTransport;
        return Attempt::kRetriableReconnect;
      }
      Json resp;
      try {
        resp = Json::parse(frame);
      } catch (const CheckError& e) {
        // The frame arrived intact per the length prefix but its body
        // is not JSON: corrupted in flight. The stream itself is still
        // framed, so retry without reconnecting.
        stats_.digest_mismatches += 1;
        out->error_detail = format("unparseable response: %s", e.what());
        return Attempt::kRetriable;
      }
      if (!resp.is_object() || !resp.contains("id") ||
          !(resp.at("id").is_string() &&
            resp.at("id").as_string() == wire_id)) {
        continue;  // stale response from an abandoned attempt; discard
      }
      if (!resp.contains("ok") || !resp.at("ok").is_bool()) {
        stats_.digest_mismatches += 1;
        out->error_detail = "response missing ok member";
        return Attempt::kRetriable;
      }
      out->response = resp;
      if (resp.at("ok").as_bool()) {
        if (!resp.contains("result")) {
          stats_.digest_mismatches += 1;
          out->error_detail = "ok response missing result";
          return Attempt::kRetriable;
        }
        std::string dumped = resp.at("result").dump();
        if (resp.contains("digest")) {
          const Json& digest = resp.at("digest");
          if (!digest.is_string() || digest.as_string() != fnv1a_hex(dumped)) {
            // The result bytes do not match the server's own digest:
            // the response was corrupted in flight. Never surface it.
            stats_.digest_mismatches += 1;
            out->error_detail = "response digest mismatch";
            return Attempt::kRetriable;
          }
        }
        out->ok = true;
        out->result_dump = std::move(dumped);
        out->error_code.clear();
        out->error_detail.clear();
        return Attempt::kOk;
      }
      // Error response.
      std::string code;
      std::string message;
      if (resp.contains("error") && resp.at("error").is_object()) {
        const Json& err = resp.at("error");
        if (err.contains("code") && err.at("code").is_string()) {
          code = err.at("code").as_string();
        }
        if (err.contains("message") && err.at("message").is_string()) {
          message = err.at("message").as_string();
        }
        if (err.contains("retry_after_ms") &&
            err.at("retry_after_ms").is_integer()) {
          *retry_after_ms = err.at("retry_after_ms").as_int();
        }
      }
      out->error_code = code;
      out->error_detail = message;
      if (code == kErrOverloaded) {
        stats_.refused_overloaded += 1;
      } else if (code == kErrDraining) {
        stats_.refused_draining += 1;
      } else if (code == kErrDeadline) {
        stats_.refused_deadline += 1;
      } else if (code == kErrIntegrity) {
        stats_.refused_integrity += 1;
      }
      if (!code_is_retriable(code)) {
        return Attempt::kFatal;
      }
      if (code == kErrBadFrame) {
        // The server lost framing on our stream; it will answer nothing
        // further on this connection.
        drop_connection();
        return Attempt::kRetriableReconnect;
      }
      return Attempt::kRetriable;
    }

    const std::uint64_t now = mono_ms();
    if (now >= deadline) {
      stats_.timeouts += 1;
      drop_connection();  // a late response must not alias a new attempt
      out->error_detail =
          format("attempt timed out after %llu ms",
                 static_cast<unsigned long long>(options_.timeout_ms));
      out->fail_kind = CallResult::FailKind::kTimeout;
      return Attempt::kRetriableReconnect;
    }
    pollfd pfd = {transport_->poll_fd(), POLLIN, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(deadline - now));
    if (rc < 0) {
      if (errno == EINTR) {
        continue;
      }
      stats_.transport_errors += 1;
      drop_connection();
      out->error_detail = "poll failed";
      out->fail_kind = CallResult::FailKind::kTransport;
      return Attempt::kRetriableReconnect;
    }
    if (rc == 0) {
      continue;  // timeout handled at loop top
    }
    char buf[64 << 10];
    const std::int64_t n = transport_->read_some(buf, sizeof buf);
    if (n < 0) {
      stats_.transport_errors += 1;
      drop_connection();
      out->error_detail = "connection lost";
      out->fail_kind = CallResult::FailKind::kTransport;
      return Attempt::kRetriableReconnect;
    }
    if (n == 0) {
      stats_.transport_errors += 1;
      drop_connection();
      out->error_detail = "connection closed by server";
      out->fail_kind = CallResult::FailKind::kTransport;
      return Attempt::kRetriableReconnect;
    }
    reader_->feed(std::string_view(buf, static_cast<std::size_t>(n)));
  }
}

CallResult Client::call(const std::string& op, const Json& params,
                        std::uint64_t deadline_ms) {
  stats_.calls += 1;
  const std::uint64_t call_index = call_index_++;
  CallResult out;

  // The integrity digest commits to the canonical payload once; every
  // attempt re-sends the same commitment (the params do not change).
  const std::string check = fnv1a_hex(artifact_key(op, params));

  const int max_attempts = std::max(options_.retry.max_attempts, 1);
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    // Fresh wire id per attempt: a response to an abandoned attempt is
    // discarded by id instead of being taken for the current one.
    const std::string wire_id =
        format("c%llu", static_cast<unsigned long long>(next_attempt_id_++));
    Json req = Json::object();
    req["id"] = wire_id;
    req["op"] = op;
    req["params"] = params;
    if (deadline_ms > 0) {
      req["deadline_ms"] = deadline_ms;
    }
    req["check"] = check;

    stats_.attempts += 1;
    if (attempt > 1) {
      stats_.retries += 1;
    }
    out.attempts = attempt;
    std::int64_t retry_after_ms = -1;
    const Attempt result =
        attempt_once(req.dump(), wire_id, &out, &retry_after_ms);
    if (result == Attempt::kOk || result == Attempt::kFatal) {
      return out;
    }
    if (attempt == max_attempts) {
      break;
    }

    // Capped exponential backoff with deterministic jitter; the
    // server's backpressure hint can lengthen but never shorten it.
    const int shift = std::min(attempt - 1, 30);
    std::uint64_t backoff = std::min(options_.retry.base_backoff_ms << shift,
                                     options_.retry.max_backoff_ms);
    if (backoff > 0) {
      Rng rng(mix64(options_.retry.seed ^
                    mix64(0x9e3779b97f4a7c15ULL + call_index) ^
                    static_cast<std::uint64_t>(attempt)));
      backoff = backoff / 2 + rng.next_below(backoff / 2 + 1);
    }
    if (retry_after_ms > 0) {
      backoff = std::max(backoff, static_cast<std::uint64_t>(retry_after_ms));
    }
    if (backoff > 0) {
      stats_.backoff_ms_total += backoff;
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
    }
  }
  return out;
}

}  // namespace shlcp::svc
