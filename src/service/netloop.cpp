#include "service/netloop.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <deque>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "util/check.h"
#include "util/clock.h"
#include "util/format.h"
#include "util/metrics.h"
#include "util/parallel.h"

namespace shlcp::svc {

namespace {

/// Poll timeout: how stale the CancelToken check may get. The SIGINT
/// handler is installed with signal() (SA_RESTART on glibc), so the
/// token -- never an interrupted syscall -- is the wake-up signal.
constexpr int kPollTimeoutMs = 100;

/// Per-connection cap on buffered-but-unsent response bytes. A client
/// that stops reading gets its connection closed instead of growing
/// the buffer (and stalling nothing else -- sockets are non-blocking).
constexpr std::size_t kMaxConnWriteBufferBytes = 64u << 20;

/// Grace window after drain for flushing buffered responses to slow
/// readers before the sockets are torn down.
constexpr std::uint64_t kDrainFlushMs = 2000;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) {
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
}

void set_cloexec(int fd) {
  const int flags = ::fcntl(fd, F_GETFD, 0);
  if (flags >= 0) {
    ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
  }
}

/// One admitted request awaiting dispatch.
struct PendingRequest {
  std::string body;           // request envelope (shlcp.svc.v1 JSON)
  std::uint64_t admit_ms = 0; // admission stamp; queue delay charges
                              // against deadline_ms
  std::size_t conn = 0;       // index of the owning connection, used
                              // only to route the reply
  std::int64_t owner = -1;    // session owner handed to the dispatcher:
                              // the connection's id, or -1 for the pipe
                              // (exempt from per-connection session caps)
  std::uint64_t tag = 0;      // protocol-private cookie (HTTP: request
                              // sequence + keep-alive bit)
  bool raw = false;           // body is already wire bytes: skip the
                              // dispatcher AND the encoder, write as-is
                              // (canned protocol replies ride the queue
                              // to keep per-connection response order)
};

/// Admission policy of the loop.
struct Admission {
  std::size_t queue_max = 0;          // 0 = unbounded
  std::size_t conn_inflight_max = 0;  // 0 = unbounded
  int batch_max = 32;
  HealthState* health = nullptr;
};

/// Backpressure hint for a shed frame: roughly how long the backlog
/// ahead needs to dispatch, assuming ~10 ms per batch, capped so a
/// wildly overloaded server never tells clients to sleep forever.
std::int64_t retry_after_hint_ms(std::size_t depth, int batch_max) {
  const std::size_t batches =
      depth / static_cast<std::size_t>(std::max(batch_max, 1)) + 1;
  return static_cast<std::int64_t>(std::min<std::size_t>(batches * 10, 1000));
}

/// Builds the "overloaded" refusal body for a request that was never
/// admitted. The envelope is parsed only to salvage the request id (the
/// response must be matchable client-side); one too corrupt to parse is
/// shed with a null id.
std::string shed_body(const std::string& body, std::string_view what,
                      std::size_t depth, int batch_max) {
  Json id;
  try {
    const Json req = Json::parse(body);
    if (req.is_object() && req.contains("id")) {
      id = req.at("id");
    }
  } catch (const CheckError&) {
  }
  metrics::counter("service.shed").inc();
  return error_response(id, kErrOverloaded, what, "",
                        retry_after_hint_ms(depth, batch_max))
      .dump();
}

/// Outcome of admitting one envelope: empty = admitted (the request is
/// now queued), otherwise the refusal body to send back.
std::string admit_request(std::deque<PendingRequest>& queue,
                          PendingRequest&& request,
                          std::size_t* conn_inflight,
                          const Admission& admission) {
  if (admission.queue_max > 0 && queue.size() >= admission.queue_max) {
    admission.health->shed_total.fetch_add(1, std::memory_order_relaxed);
    return shed_body(
        request.body,
        format("admission queue full (%zu queued); back off and retry",
               queue.size()),
        queue.size(), admission.batch_max);
  }
  if (admission.conn_inflight_max > 0 &&
      *conn_inflight >= admission.conn_inflight_max) {
    admission.health->shed_total.fetch_add(1, std::memory_order_relaxed);
    return shed_body(
        request.body,
        format("connection in-flight cap (%zu) reached; await "
               "responses before pipelining more",
               admission.conn_inflight_max),
        queue.size(), admission.batch_max);
  }
  queue.push_back(std::move(request));
  ++*conn_inflight;
  admission.health->admitted_total.fetch_add(1, std::memory_order_relaxed);
  admission.health->queue_depth.store(queue.size(), std::memory_order_relaxed);
  return {};
}

/// Dispatches up to batch_max queued requests across the pool and
/// returns the responses in queue order (paired with their Pending).
/// `raw` requests pass through untouched (their body IS the response).
std::vector<std::pair<PendingRequest, std::string>> dispatch_batch(
    Dispatcher& dispatcher, WorkerPool& pool,
    std::deque<PendingRequest>& queue, int batch_max, HealthState& health) {
  const std::size_t count =
      std::min(queue.size(), static_cast<std::size_t>(batch_max));
  std::vector<PendingRequest> batch;
  batch.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    batch.push_back(std::move(queue.front()));
    queue.pop_front();
  }
  metrics::histogram("service.batch.size", metrics::HistogramLayout::count())
      .record(count);
  metrics::gauge("service.queue.depth")
      .set(static_cast<std::int64_t>(queue.size()));
  health.queue_depth.store(queue.size(), std::memory_order_relaxed);

  const std::uint64_t dispatch_ms = mono_ms();
  std::vector<std::string> responses(count);
  const auto run_one = [&](std::size_t i) {
    if (batch[i].raw) {
      return;  // pre-encoded: the body IS the wire bytes
    }
    const std::uint64_t elapsed = dispatch_ms > batch[i].admit_ms
                                      ? dispatch_ms - batch[i].admit_ms
                                      : 0;
    responses[i] = dispatcher.handle_text(batch[i].body, elapsed,
                                          batch[i].owner);
  };
  if (count == 1) {
    run_one(0);
  } else {
    pool.parallel_for_chunks(count, 1,
                             [&](std::size_t, std::size_t begin,
                                 std::size_t end) {
                               for (std::size_t i = begin; i < end; ++i) {
                                 run_one(i);
                               }
                             });
  }

  std::vector<std::pair<PendingRequest, std::string>> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.emplace_back(std::move(batch[i]), std::move(responses[i]));
  }
  return out;
}

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

/// One open connection of the loop: an accepted socket, or the pipe.
struct Connection {
  int fd = -1;         // read side; also the write side of a socket
  int out_fd = -1;     // write side
  bool pipe = false;   // the caller's pipe: blocking writes, never
                       // closed here, an I/O error fails the loop
  std::int64_t id = -1;  // unique per accepted connection, never reused
                         // (slots are compacted); -1 for the pipe
  std::unique_ptr<ConnProtocol> proto;
  bool closing = false;        // read no more (EOF, framing lost, or the
                               // protocol asked); close once nothing is
                               // owed
  std::size_t inflight = 0;    // admitted frames not yet answered
  std::size_t queued_raw = 0;  // canned replies still in the queue
  std::string outbuf;          // responses the kernel has not accepted
  std::size_t outpos = 0;      // consumed prefix of outbuf

  Connection(int in, int out, bool is_pipe, std::int64_t conn_id,
             std::unique_ptr<ConnProtocol> p)
      : fd(in),
        out_fd(out),
        pipe(is_pipe),
        id(conn_id),
        proto(std::move(p)) {}

  [[nodiscard]] std::size_t pending_out() const {
    return outbuf.size() - outpos;
  }
};

}  // namespace

std::unique_ptr<ConnProtocol> make_jsonl_protocol(
    std::size_t max_frame_bytes) {
  return std::make_unique<JsonlProtocol>(max_frame_bytes);
}

void StreamListener::close() {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
    if (unbind) {
      unbind();
    }
  }
}

StreamListener listen_unix(const std::string& path) {
  if (path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    errno = ENAMETOOLONG;
    return {};
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return {};
  }
  ::unlink(path.c_str());
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);  // a successful close leaves errno alone
    return {};
  }
  // Nonblocking: poll's readability hint on a listener is advisory --
  // a queued connection can be gone again by the time accept runs, and
  // a blocking accept would then pin the loop past every cancel check.
  // CLOEXEC: listener fds must not leak into exec'd children (the
  // supervisor forks backends from a process running this loop).
  set_nonblocking(fd);
  set_cloexec(fd);
  return {fd, [path] { ::unlink(path.c_str()); }, nullptr};
}

StreamListener listen_tcp(const std::string& host, int port,
                          int* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return {};
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    errno = EINVAL;
    return {};
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    return {};
  }
  sockaddr_in bound = {};
  socklen_t len = sizeof(bound);
  *bound_port =
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0
          ? static_cast<int>(ntohs(bound.sin_port))
          : port;
  set_nonblocking(fd);  // same blocked-accept hazard as listen_unix
  set_cloexec(fd);
  return {fd, nullptr, nullptr};
}

int serve_stream(std::vector<StreamListener> listeners, int pipe_in,
                 int pipe_out, Dispatcher& dispatcher, CancelToken& cancel,
                 const ServerOptions& options) {
  ::signal(SIGPIPE, SIG_IGN);
  HealthState health;
  health.queue_max.store(options.queue_max, std::memory_order_relaxed);
  dispatcher.attach_health(&health);
  const Admission admission{options.queue_max, options.conn_inflight_max,
                            options.batch_max, &health};
  WorkerPool pool(resolve_num_threads(options.num_threads));

  std::vector<Connection> conns;
  if (pipe_in >= 0) {
    conns.emplace_back(pipe_in, pipe_out, true, -1,
                       make_jsonl_protocol(options.max_frame_bytes));
  }
  std::int64_t next_conn_id = 0;
  std::deque<PendingRequest> queue;
  int exit_code = 0;

  const auto stop_accepting = [&] {
    for (StreamListener& listener : listeners) {
      listener.close();
    }
    listeners.clear();
  };

  const auto check_cancel = [&] {
    if (cancel.stop_requested() && !dispatcher.draining()) {
      dispatcher.begin_drain();
      stop_accepting();
    }
  };

  const auto close_conn = [&](Connection& c) {
    if (c.fd >= 0 && !c.pipe) {
      ::close(c.fd);
    }
    c.fd = -1;
    c.outbuf.clear();
    c.outpos = 0;
  };

  // A connection that died of an I/O error. The pipe is the daemon's
  // only client, so losing it is a transport failure of the process.
  const auto fail_conn = [&](Connection& c) {
    if (c.pipe) {
      exit_code = 1;
    }
    close_conn(c);
  };

  // Writes as much of c.outbuf as the connection accepts. Returns false
  // if the connection died. A full socket buffer is not an error: the
  // remainder stays queued and the poll loop watches POLLOUT -- one
  // slow reader must never stall dispatch for the rest.
  const auto flush_conn = [&](Connection& c) -> bool {
    while (c.outpos < c.outbuf.size()) {
      const char* data = c.outbuf.data() + c.outpos;
      const std::size_t size = c.outbuf.size() - c.outpos;
      // The pipe's fds may share their file description with other
      // processes, so they are never switched to O_NONBLOCK and these
      // writes block. MSG_NOSIGNAL: a socket client that vanished
      // mid-response must produce EPIPE (slot reclaimed below), never a
      // process-killing SIGPIPE -- belt to the SIG_IGN suspenders above.
      const ssize_t n = c.pipe ? ::write(c.out_fd, data, size)
                               : ::send(c.fd, data, size, MSG_NOSIGNAL);
      if (n > 0) {
        c.outpos += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n < 0 && !c.pipe && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return true;
      }
      fail_conn(c);
      return false;
    }
    c.outbuf.clear();
    c.outpos = 0;
    return true;
  };

  const auto send_conn = [&](Connection& c, std::string_view bytes) {
    if (c.fd < 0) {
      return;
    }
    c.outbuf.append(bytes.data(), bytes.size());
    if (flush_conn(c) && c.pending_out() > kMaxConnWriteBufferBytes) {
      close_conn(c);  // reader has stalled; do not buffer unboundedly
    }
  };

  // A closing connection goes away once everything owed is flushed.
  const auto finished = [](const Connection& c) {
    return c.closing && c.inflight == 0 && c.queued_raw == 0 &&
           c.pending_out() == 0;
  };

  while (true) {
    check_cancel();
    while (!queue.empty()) {
      for (auto& [req, response] : dispatch_batch(
               dispatcher, pool, queue, options.batch_max, health)) {
        Connection& owner = conns[req.conn];
        if (req.raw) {
          if (owner.queued_raw > 0) {
            --owner.queued_raw;
          }
          send_conn(owner, req.body);
          continue;
        }
        if (owner.inflight > 0) {
          --owner.inflight;
        }
        if (owner.fd >= 0) {
          bool close_after = false;
          const std::string bytes =
              owner.proto->encode_response(req.tag, response, &close_after);
          send_conn(owner, bytes);
          if (close_after) {
            owner.closing = true;
          }
        }
      }
      check_cancel();
    }
    if (dispatcher.draining()) {
      break;  // queue flushed above; refuse everything else
    }

    // The queue is empty here, so no PendingRequest.conn index is
    // live: retire connections whose work is done, then reclaim the
    // slots (and protocol buffers) of closed connections instead of
    // scanning them forever. Every request of a closed connection has
    // been dispatched, so its session-owner count can be released.
    for (Connection& c : conns) {
      if (c.fd >= 0 && finished(c)) {
        close_conn(c);
      }
      if (c.fd < 0 && !c.pipe) {
        dispatcher.connection_closed(c.id);
      }
    }
    conns.erase(std::remove_if(conns.begin(), conns.end(),
                               [](const Connection& c) { return c.fd < 0; }),
                conns.end());
    if (listeners.empty() && conns.empty()) {
      break;  // a pipe-only loop whose pipe ended
    }

    // pfds: the listeners first, then one entry per connection. A
    // closing connection only lingers to flush what it is owed (the
    // pipe's blocking writes never leave any); it is never read again.
    std::vector<pollfd> pfds;
    for (const StreamListener& listener : listeners) {
      pfds.push_back({listener.fd, POLLIN, 0});
    }
    for (const Connection& c : conns) {
      pfds.push_back(
          {c.fd,
           static_cast<short>((c.closing ? 0 : POLLIN) |
                              (c.pending_out() > 0 ? POLLOUT : 0)),
           0});
    }
    const int rc = ::poll(pfds.data(), pfds.size(), kPollTimeoutMs);
    if (rc < 0 && errno != EINTR) {
      exit_code = 1;
      break;
    }
    if (rc <= 0) {
      continue;
    }

    const std::size_t nlisten = listeners.size();
    const std::size_t nconns = conns.size();  // accepts append past these
    for (std::size_t li = 0; li < nlisten; ++li) {
      if ((pfds[li].revents & POLLIN) == 0) {
        continue;
      }
      // EAGAIN is normal here (nonblocking listener, advisory POLLIN);
      // the connection will be re-reported if still queued.
      const int client = ::accept(listeners[li].fd, nullptr, nullptr);
      if (client >= 0) {
        set_nonblocking(client);
        set_cloexec(client);
        conns.emplace_back(
            client, client, false, next_conn_id++,
            listeners[li].make_protocol(options.max_frame_bytes));
      }
    }
    for (std::size_t ci = 0; ci < nconns; ++ci) {
      Connection& c = conns[ci];
      const short revents = pfds[nlisten + ci].revents;
      if ((revents & (POLLERR | POLLNVAL)) != 0) {
        fail_conn(c);  // a dead fd must not busy-spin the poll loop
        continue;
      }
      if ((revents & POLLOUT) != 0 && !flush_conn(c)) {
        continue;
      }
      if (c.closing) {
        if ((revents & POLLHUP) != 0) {
          close_conn(c);  // the peer left; nothing more can be delivered
        }
        continue;
      }
      if ((revents & (POLLIN | POLLHUP)) == 0) {
        continue;
      }
      char buf[64 << 10];
      const ssize_t n = ::read(c.fd, buf, sizeof buf);
      if (n > 0) {
        ConnProtocol::Output out;
        c.proto->on_bytes(std::string_view(buf, static_cast<std::size_t>(n)),
                          &out);
        const std::int64_t owner = c.id;
        for (ConnProtocol::Inbound& in : out.requests) {
          if (in.raw) {
            // Canned protocol reply: ride the queue so it is written in
            // request order relative to dispatched responses.
            queue.push_back(PendingRequest{std::move(in.body), mono_ms(), ci,
                                           owner, in.tag, true});
            ++c.queued_raw;
            continue;
          }
          std::string refusal = admit_request(
              queue,
              PendingRequest{std::move(in.body), mono_ms(), ci, owner, in.tag,
                             false},
              &c.inflight, admission);
          if (!refusal.empty()) {
            bool close_after = false;
            std::string wire =
                c.proto->encode_shed(in, refusal, &close_after);
            queue.push_back(PendingRequest{std::move(wire), mono_ms(), ci,
                                           owner, in.tag, true});
            ++c.queued_raw;
            if (close_after) {
              c.closing = true;
            }
          }
        }
        if (out.close) {
          metrics::counter("service.errors").inc();
          c.closing = true;
        }
      } else if (n == 0) {
        // EOF: the peer sent its last request. Read no more, deliver
        // every reply still owed, then close -- a half-closed client
        // gets all of them.
        c.closing = true;
      } else if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
        fail_conn(c);
      }
    }
  }

  // Drain contract: in-flight requests were answered above, but their
  // frames may still sit in write buffers. Give slow readers a bounded
  // grace window before tearing the sockets down.
  const std::uint64_t flush_deadline = mono_ms() + kDrainFlushMs;
  while (mono_ms() < flush_deadline) {
    std::vector<pollfd> pfds;
    std::vector<std::size_t> conn_of_pfd;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if (conns[i].fd >= 0 && conns[i].pending_out() > 0) {
        pfds.push_back({conns[i].fd, POLLOUT, 0});
        conn_of_pfd.push_back(i);
      }
    }
    if (pfds.empty()) {
      break;
    }
    if (::poll(pfds.data(), pfds.size(), kPollTimeoutMs) < 0 &&
        errno != EINTR) {
      break;
    }
    for (std::size_t pi = 0; pi < pfds.size(); ++pi) {
      Connection& c = conns[conn_of_pfd[pi]];
      if ((pfds[pi].revents & (POLLERR | POLLNVAL | POLLHUP)) != 0) {
        close_conn(c);
      } else if ((pfds[pi].revents & POLLOUT) != 0) {
        flush_conn(c);
      }
    }
  }

  for (Connection& c : conns) {
    close_conn(c);
    if (!c.pipe) {
      dispatcher.connection_closed(c.id);
    }
  }
  stop_accepting();
  dispatcher.attach_health(nullptr);
  return exit_code;
}

}  // namespace shlcp::svc
