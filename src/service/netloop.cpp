#include "service/netloop.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <optional>

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

}  // namespace

std::int64_t retry_after_hint_ms(std::size_t depth, int batch_max) {
  const std::size_t batches =
      depth / static_cast<std::size_t>(std::max(batch_max, 1)) + 1;
  return static_cast<std::int64_t>(std::min<std::size_t>(batches * 10, 1000));
}

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

std::string admit_request(std::deque<PendingRequest>& queue,
                          PendingRequest&& request,
                          std::size_t* conn_inflight,
                          const Admission& admission) {
  if (admission.queue_max > 0 && queue.size() >= admission.queue_max) {
    if (admission.health != nullptr) {
      admission.health->shed_total.fetch_add(1, std::memory_order_relaxed);
    }
    return shed_body(
        request.body,
        format("admission queue full (%zu queued); back off and retry",
               queue.size()),
        queue.size(), admission.batch_max);
  }
  if (admission.conn_inflight_max > 0 && conn_inflight != nullptr &&
      *conn_inflight >= admission.conn_inflight_max) {
    if (admission.health != nullptr) {
      admission.health->shed_total.fetch_add(1, std::memory_order_relaxed);
    }
    return shed_body(
        request.body,
        format("connection in-flight cap (%zu) reached; await "
               "responses before pipelining more",
               admission.conn_inflight_max),
        queue.size(), admission.batch_max);
  }
  queue.push_back(std::move(request));
  if (conn_inflight != nullptr) {
    ++*conn_inflight;
  }
  if (admission.health != nullptr) {
    admission.health->admitted_total.fetch_add(1, std::memory_order_relaxed);
    admission.health->queue_depth.store(queue.size(),
                                        std::memory_order_relaxed);
  }
  return {};
}

std::vector<std::pair<PendingRequest, std::string>> dispatch_batch(
    Dispatcher& dispatcher, WorkerPool& pool,
    std::deque<PendingRequest>& queue, int batch_max, HealthState* health) {
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
  if (health != nullptr) {
    health->queue_depth.store(queue.size(), std::memory_order_relaxed);
  }

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
                                          batch[i].conn);
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

StreamListener listen_unix(const std::string& path) {
  SHLCP_CHECK_MSG(path.size() < sizeof(sockaddr_un{}.sun_path),
                  "socket path too long");
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
    ::close(fd);
    return {};
  }
  // Nonblocking: poll's readability hint on a listener is advisory --
  // a queued connection can be gone again by the time accept runs, and
  // a blocking accept would then pin the loop past every cancel check.
  // CLOEXEC: listener fds must not leak into exec'd children (the
  // supervisor forks backends from a process running this loop).
  set_nonblocking(fd);
  set_cloexec(fd);
  return {fd, [path] { ::unlink(path.c_str()); }};
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
    return {};
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    return {};
  }
  if (bound_port != nullptr) {
    sockaddr_in bound = {};
    socklen_t len = sizeof(bound);
    *bound_port = ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound),
                                &len) == 0
                      ? static_cast<int>(ntohs(bound.sin_port))
                      : port;
  }
  set_nonblocking(fd);  // same blocked-accept hazard as listen_unix
  set_cloexec(fd);
  return {fd, nullptr};
}

int serve_stream(StreamListener listener, const ServerOptions& options,
                 const ProtocolFactory& make_protocol) {
  ::signal(SIGPIPE, SIG_IGN);
  if (listener.fd < 0) {
    return 1;
  }
  const int listen_fd = listener.fd;

  // The dispatcher, health counters, and cancel token are injectable so
  // several transport loops (serve_transports) can share one of each;
  // standalone use owns all three.
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

  struct Connection {
    int fd = -1;
    std::unique_ptr<ConnProtocol> proto;
    bool broken = false;   // framing lost: flush pending, then close
    bool closing = false;  // protocol asked to end after responses out
    std::size_t inflight = 0;    // admitted frames not yet answered
    std::size_t queued_raw = 0;  // canned replies still in the queue
    std::string outbuf;        // responses the kernel has not accepted
    std::size_t outpos = 0;    // consumed prefix of outbuf

    Connection(int f, std::unique_ptr<ConnProtocol> p)
        : fd(f), proto(std::move(p)) {}

    [[nodiscard]] std::size_t pending_out() const {
      return outbuf.size() - outpos;
    }
  };
  std::vector<Connection> conns;
  std::deque<PendingRequest> queue;
  bool accepting = true;

  const auto stop_accepting = [&] {
    if (accepting) {
      accepting = false;
      ::close(listen_fd);
      if (listener.unbind) {
        listener.unbind();
      }
    }
  };

  const auto close_conn = [&](Connection& c) {
    if (c.fd >= 0) {
      ::close(c.fd);
      c.fd = -1;
    }
    c.outbuf.clear();
    c.outpos = 0;
  };

  // Writes as much of c.outbuf as the (non-blocking) socket accepts.
  // Returns false if the connection died. A full socket buffer is not
  // an error: the remainder stays queued and the poll loop watches
  // POLLOUT -- one slow reader must never stall dispatch for the rest.
  const auto flush_conn = [&](Connection& c) -> bool {
    while (c.outpos < c.outbuf.size()) {
      // MSG_NOSIGNAL: a client that vanished mid-response must produce
      // EPIPE (slot reclaimed below), never a process-killing SIGPIPE
      // -- belt to the SIG_IGN suspenders above.
      const ssize_t n = ::send(c.fd, c.outbuf.data() + c.outpos,
                               c.outbuf.size() - c.outpos, MSG_NOSIGNAL);
      if (n > 0) {
        c.outpos += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return true;
      }
      close_conn(c);
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

  // A connection done with its work (framing lost, or the protocol
  // requested close) goes away once everything owed is flushed.
  const auto finished = [](const Connection& c) {
    return (c.broken || c.closing) && c.inflight == 0 &&
           c.queued_raw == 0 && c.pending_out() == 0;
  };

  while (true) {
    if (cancel->stop_requested() && !dispatcher->draining()) {
      dispatcher->begin_drain();
      stop_accepting();
    }
    while (!queue.empty()) {
      for (auto& [req, response] : dispatch_batch(
               *dispatcher, pool, queue, options.batch_max, health)) {
        if (req.conn >= 0 && req.conn < static_cast<int>(conns.size())) {
          Connection& owner = conns[static_cast<std::size_t>(req.conn)];
          if (req.raw) {
            if (owner.queued_raw > 0) {
              --owner.queued_raw;
            }
            if (owner.fd >= 0) {
              send_conn(owner, req.body);
            }
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
      }
      if (cancel->stop_requested() && !dispatcher->draining()) {
        dispatcher->begin_drain();
        stop_accepting();
      }
    }
    if (dispatcher->draining()) {
      break;  // queue flushed above; refuse everything else
    }

    // The queue is empty here, so no PendingRequest.conn index is
    // live: retire connections whose work is done, then reclaim the
    // slots (and protocol buffers) of closed connections instead of
    // scanning them forever.
    for (Connection& c : conns) {
      if (c.fd >= 0 && finished(c)) {
        close_conn(c);
      }
    }
    conns.erase(std::remove_if(conns.begin(), conns.end(),
                               [](const Connection& c) { return c.fd < 0; }),
                conns.end());

    std::vector<pollfd> pfds;
    std::vector<int> conn_of_pfd;  // -1 = the listener
    if (accepting) {
      pfds.push_back({listen_fd, POLLIN, 0});
      conn_of_pfd.push_back(-1);
    }
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if (conns[i].fd >= 0) {
        // A broken or closing connection only lingers to flush what it
        // is owed; it is never read again.
        const short events = static_cast<short>(
            ((conns[i].broken || conns[i].closing) ? 0 : POLLIN) |
            (conns[i].pending_out() > 0 ? POLLOUT : 0));
        pfds.push_back({conns[i].fd, events, 0});
        conn_of_pfd.push_back(static_cast<int>(i));
      }
    }
    const int rc = ::poll(pfds.data(), pfds.size(), kPollTimeoutMs);
    if (rc < 0 && errno != EINTR) {
      break;
    }
    if (rc <= 0) {
      continue;
    }

    for (std::size_t pi = 0; pi < pfds.size(); ++pi) {
      if (conn_of_pfd[pi] < 0) {
        if ((pfds[pi].revents & POLLIN) != 0) {
          // EAGAIN is normal here (nonblocking listener, advisory
          // POLLIN); the connection will be re-reported if still queued.
          const int client = ::accept(listen_fd, nullptr, nullptr);
          if (client >= 0) {
            set_nonblocking(client);
            set_cloexec(client);
            conns.emplace_back(client,
                               make_protocol(options.max_frame_bytes));
          }
        }
        continue;
      }
      const int conn_index = conn_of_pfd[pi];
      Connection& c = conns[static_cast<std::size_t>(conn_index)];
      if ((pfds[pi].revents & (POLLERR | POLLNVAL)) != 0) {
        close_conn(c);  // a dead fd must not busy-spin the poll loop
        continue;
      }
      if ((pfds[pi].revents & POLLOUT) != 0 && !flush_conn(c)) {
        continue;
      }
      if (c.broken || c.closing) {
        // Close once everything owed is out (or the peer left).
        if (finished(c) || (pfds[pi].revents & POLLHUP) != 0) {
          close_conn(c);
        }
        continue;
      }
      if ((pfds[pi].revents & (POLLIN | POLLHUP)) == 0) {
        continue;
      }
      char buf[64 << 10];
      const ssize_t n = ::read(c.fd, buf, sizeof buf);
      if (n > 0) {
        ConnProtocol::Output out;
        c.proto->on_bytes(std::string_view(buf, static_cast<std::size_t>(n)),
                          &out);
        for (ConnProtocol::Inbound& in : out.requests) {
          if (in.raw) {
            // Canned protocol reply: ride the queue so it is written in
            // request order relative to dispatched responses.
            queue.push_back(PendingRequest{std::move(in.body), mono_ms(),
                                           conn_index, in.tag, true});
            ++c.queued_raw;
            continue;
          }
          PendingRequest pending{std::move(in.body), mono_ms(), conn_index,
                                 in.tag, false};
          std::string refusal =
              admit_request(queue, std::move(pending), &c.inflight,
                            admission);
          if (!refusal.empty()) {
            bool close_after = false;
            std::string wire =
                c.proto->encode_shed(in, refusal, &close_after);
            queue.push_back(PendingRequest{std::move(wire), mono_ms(),
                                           conn_index, in.tag, true});
            ++c.queued_raw;
            if (close_after) {
              c.closing = true;
            }
          }
        }
        if (out.close) {
          metrics::counter("service.errors").inc();
          c.broken = true;
        }
        if (finished(c)) {
          close_conn(c);  // nothing queued or owed; otherwise flush first
        }
      } else if (n == 0 || (errno != EINTR && errno != EAGAIN &&
                            errno != EWOULDBLOCK)) {
        close_conn(c);
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
  }
  stop_accepting();
  return 0;
}

}  // namespace shlcp::svc
