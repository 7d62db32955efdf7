#include "service/server.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include <poll.h>
#include <unistd.h>

#include "service/http.h"
#include "service/netloop.h"
#include "util/clock.h"
#include "util/metrics.h"
#include "util/parallel.h"

namespace shlcp::svc {

namespace {

constexpr int kPollTimeoutMs = 100;

bool write_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// Drains a FrameReader into the queue, applying admission control.
/// Shed refusals and the terminal bad_frame response are appended to
/// `error_out` as response *bodies* (the caller frames them). Returns
/// false on a protocol error -- the stream is then unrecoverable.
bool extract_frames(FrameReader& reader, std::deque<PendingRequest>& queue,
                    std::size_t* conn_inflight, const Admission& admission,
                    std::vector<std::string>* error_out) {
  std::string frame;
  std::string error;
  while (true) {
    switch (reader.next(&frame, &error)) {
      case FrameReader::Next::kFrame: {
        std::string refusal = admit_request(
            queue, PendingRequest{std::move(frame), mono_ms(), -1, 0, false},
            conn_inflight, admission);
        if (!refusal.empty()) {
          error_out->push_back(std::move(refusal));
        }
        frame.clear();
        break;
      }
      case FrameReader::Next::kNeedMore:
        return true;
      case FrameReader::Next::kError:
        metrics::counter("service.errors").inc();
        error_out->push_back(
            error_response(Json(), kErrBadFrame, error).dump());
        return false;
    }
  }
}

/// JSONL framing over a stream connection: requests and responses are
/// matched by their "id" member, so tags carry nothing and responses
/// never force a close. A framing error emits one canned bad_frame
/// frame and ends the stream.
class JsonlProtocol final : public ConnProtocol {
 public:
  explicit JsonlProtocol(std::size_t max_frame_bytes)
      : reader_(max_frame_bytes) {}

  void on_bytes(std::string_view data, Output* out) override {
    if (reader_.failed()) {
      return;  // stream already condemned; drop trailing bytes
    }
    reader_.feed(data);
    std::string frame;
    std::string error;
    while (true) {
      switch (reader_.next(&frame, &error)) {
        case FrameReader::Next::kFrame:
          out->requests.push_back(Inbound{std::move(frame), 0, false});
          frame.clear();
          break;
        case FrameReader::Next::kNeedMore:
          return;
        case FrameReader::Next::kError:
          out->requests.push_back(Inbound{
              encode_frame(
                  error_response(Json(), kErrBadFrame, error).dump()),
              0, true});
          out->close = true;
          return;
      }
    }
  }

  std::string encode_response(std::uint64_t /*tag*/,
                              const std::string& response,
                              bool* /*close_after*/) override {
    return encode_frame(response);
  }

  std::string encode_shed(const Inbound& /*req*/,
                          const std::string& refusal_body,
                          bool* /*close_after*/) override {
    return encode_frame(refusal_body);
  }

 private:
  FrameReader reader_;
};

std::unique_ptr<ConnProtocol> make_jsonl(std::size_t max_frame_bytes) {
  return std::make_unique<JsonlProtocol>(max_frame_bytes);
}

}  // namespace

int serve_pipe(const ServerOptions& options) {
  ::signal(SIGPIPE, SIG_IGN);
  std::unique_ptr<Service> owned_service;
  Dispatcher* dispatcher = options.dispatcher;
  if (dispatcher == nullptr) {
    owned_service = std::make_unique<Service>(options.service);
    dispatcher = owned_service.get();
  }
  HealthState owned_health;
  HealthState* health =
      options.health != nullptr ? options.health : &owned_health;
  health->queue_max.store(options.queue_max, std::memory_order_relaxed);
  dispatcher->attach_health(health);
  const Admission admission{options.queue_max, options.conn_inflight_max,
                            options.batch_max, health};
  CancelToken local_token;
  CancelToken* cancel =
      options.cancel != nullptr ? options.cancel : &local_token;
  std::optional<SigintGuard> sigint;
  if (options.arm_sigint) {
    sigint.emplace(*cancel);
  }
  WorkerPool pool(resolve_num_threads(options.num_threads));
  FrameReader reader(options.max_frame_bytes);
  std::deque<PendingRequest> queue;
  std::size_t inflight = 0;  // the pipe is one connection
  bool eof = false;
  bool broken = false;  // framing lost

  while (true) {
    if (cancel->stop_requested() && !dispatcher->draining()) {
      dispatcher->begin_drain();
    }
    // Flush the queue first: once draining, the dispatcher answers
    // everything still queued with the "draining" error, so this
    // terminates.
    while (!queue.empty()) {
      for (auto& [req, response] : dispatch_batch(
               *dispatcher, pool, queue, options.batch_max, health)) {
        if (inflight > 0) {
          --inflight;
        }
        if (!write_all(options.out_fd, encode_frame(response))) {
          return 1;
        }
      }
      if (cancel->stop_requested() && !dispatcher->draining()) {
        dispatcher->begin_drain();
      }
    }
    if (eof || broken || dispatcher->draining()) {
      break;
    }

    struct pollfd pfd = {options.in_fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, kPollTimeoutMs);
    if (rc < 0) {
      if (errno == EINTR) {
        continue;
      }
      return 1;
    }
    if (rc == 0) {
      continue;
    }
    if ((pfd.revents & (POLLIN | POLLHUP)) != 0) {
      char buf[64 << 10];
      const ssize_t n = ::read(options.in_fd, buf, sizeof buf);
      if (n > 0) {
        reader.feed(std::string_view(buf, static_cast<std::size_t>(n)));
        std::vector<std::string> frame_errors;
        if (!extract_frames(reader, queue, &inflight, admission,
                            &frame_errors)) {
          broken = true;
        }
        for (const std::string& e : frame_errors) {
          if (!write_all(options.out_fd, encode_frame(e))) {
            return 1;
          }
        }
      } else if (n == 0) {
        eof = true;
      } else if (errno != EINTR && errno != EAGAIN) {
        return 1;
      }
    } else if ((pfd.revents & (POLLERR | POLLNVAL)) != 0) {
      return 1;
    }
  }
  return 0;
}

int serve_socket(const std::string& path, const ServerOptions& options) {
  return serve_stream(listen_unix(path), options, make_jsonl);
}

int serve_tcp(const std::string& host, int port,
              const ServerOptions& options) {
  int bound = 0;
  StreamListener listener = listen_tcp(host, port, &bound);
  if (listener.fd >= 0 && options.bound_port != nullptr) {
    options.bound_port->store(bound, std::memory_order_release);
  }
  return serve_stream(std::move(listener), options, make_jsonl);
}

bool parse_hostport(const std::string& spec, std::string* host, int* port) {
  std::string host_part = "127.0.0.1";
  std::string port_part = spec;
  const std::size_t colon = spec.rfind(':');
  if (colon != std::string::npos) {
    host_part = spec.substr(0, colon);
    port_part = spec.substr(colon + 1);
  }
  if (host_part.empty() || port_part.empty() ||
      port_part.find_first_not_of("0123456789") != std::string::npos ||
      port_part.size() > 5) {
    return false;
  }
  const long value = std::strtol(port_part.c_str(), nullptr, 10);
  if (value < 0 || value > 65535) {
    return false;
  }
  *host = host_part;
  *port = static_cast<int>(value);
  return true;
}

int serve_transports(const TransportSpec& spec,
                     const ServerOptions& options_in) {
  if (spec.unix_path.empty() && spec.tcp.empty() && spec.http.empty()) {
    return 1;
  }
  std::string tcp_host;
  int tcp_port = 0;
  if (!spec.tcp.empty() && !parse_hostport(spec.tcp, &tcp_host, &tcp_port)) {
    return 1;
  }
  std::string http_host;
  int http_port = 0;
  if (!spec.http.empty() &&
      !parse_hostport(spec.http, &http_host, &http_port)) {
    return 1;
  }

  // One dispatcher / health / cancel behind every listener: the caches
  // and drain state are shared, and a single SIGINT drains the fleet
  // of loops together.
  ServerOptions options = options_in;
  std::unique_ptr<Service> owned_service;
  if (options.dispatcher == nullptr) {
    owned_service = std::make_unique<Service>(options.service);
    options.dispatcher = owned_service.get();
  }
  HealthState owned_health;
  if (options.health == nullptr) {
    options.health = &owned_health;
  }
  options.health->queue_max.store(options.queue_max,
                                  std::memory_order_relaxed);
  options.dispatcher->attach_health(options.health);
  CancelToken owned_cancel;
  if (options.cancel == nullptr) {
    options.cancel = &owned_cancel;
  }
  std::optional<SigintGuard> sigint;
  if (options.arm_sigint) {
    sigint.emplace(*options.cancel);
    options.arm_sigint = false;  // armed once, here, not per loop
  }

  std::atomic<int> tcp_bound{0};
  std::atomic<int> http_bound{0};
  std::vector<std::thread> loops;
  std::vector<int> codes;
  codes.reserve(3);

  if (!spec.unix_path.empty()) {
    codes.push_back(0);
    int* code = &codes.back();
    loops.emplace_back([&, code] {
      *code = serve_socket(spec.unix_path, options);
    });
  }
  if (!spec.tcp.empty()) {
    codes.push_back(0);
    int* code = &codes.back();
    ServerOptions tcp_options = options;
    tcp_options.bound_port = &tcp_bound;
    loops.emplace_back([&, code, tcp_options, tcp_host, tcp_port] {
      *code = serve_tcp(tcp_host, tcp_port, tcp_options);
    });
  }
  if (!spec.http.empty()) {
    codes.push_back(0);
    int* code = &codes.back();
    ServerOptions http_options = options;
    http_options.bound_port = &http_bound;
    loops.emplace_back([&, code, http_options, http_host, http_port] {
      *code = serve_http(http_host, http_port, http_options);
    });
  }

  if (!spec.port_file.empty()) {
    // Wait (bounded) for every requested listener to come up, then
    // publish the endpoints -- the handshake scripts and bench_fleet
    // use to discover ephemeral ports.
    const std::uint64_t deadline = mono_ms() + 10'000;
    while (mono_ms() < deadline) {
      const bool unix_ready =
          spec.unix_path.empty() ||
          std::filesystem::exists(std::filesystem::path(spec.unix_path));
      const bool tcp_ready =
          spec.tcp.empty() || tcp_bound.load(std::memory_order_acquire) > 0;
      const bool http_ready =
          spec.http.empty() || http_bound.load(std::memory_order_acquire) > 0;
      if (unix_ready && tcp_ready && http_ready) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    Json doc = Json::object();
    doc["schema"] = "shlcp.ports.v1";
    if (!spec.unix_path.empty()) {
      doc["unix"] = spec.unix_path;
    }
    if (!spec.tcp.empty()) {
      doc["tcp"] = tcp_bound.load(std::memory_order_acquire);
    }
    if (!spec.http.empty()) {
      doc["http"] = http_bound.load(std::memory_order_acquire);
    }
    const std::string tmp = spec.port_file + ".tmp";
    {
      std::ofstream out(tmp, std::ios::trunc);
      out << doc.dump() << "\n";
    }
    std::filesystem::rename(tmp, spec.port_file);  // atomic publish
  }

  int worst = 0;
  for (std::size_t i = 0; i < loops.size(); ++i) {
    loops[i].join();
    worst = std::max(worst, codes[i]);
  }
  if (!spec.port_file.empty()) {
    // The readiness handshake in reverse: remove the published port
    // file once every loop has exited, so a supervisor or script can
    // never mistake a previous incarnation's file for a live one. A
    // crash (SIGKILL) leaves the file behind by definition -- which is
    // why the supervisor also removes it before each spawn.
    std::error_code ec;
    std::filesystem::remove(spec.port_file, ec);
  }
  return worst;
}

}  // namespace shlcp::svc
