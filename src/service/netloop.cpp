#include "service/netloop.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <deque>
#include <iterator>
#include <mutex>
#include <system_error>
#include <thread>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "util/check.h"
#include "util/clock.h"
#include "util/format.h"
#include "util/metrics.h"
#include "util/parallel.h"  // resolve_num_threads

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

/// Metric handles of the loops, registered once: a by-name lookup takes
/// the registry's global mutex, which every loop would contend for.
metrics::Gauge& queue_depth_gauge() {
  static metrics::Gauge& g = metrics::gauge("service.queue.depth");
  return g;
}
metrics::Counter& shed_counter() {
  static metrics::Counter& c = metrics::counter("service.shed");
  return c;
}
metrics::Counter& error_counter() {
  static metrics::Counter& c = metrics::counter("service.errors");
  return c;
}

/// One request of a loop's queue: read, not yet answered.
struct PendingRequest {
  std::string body;           // request envelope (shlcp.svc.v1 JSON)
  std::uint64_t admit_ms = 0; // admission stamp; queue delay charges
                              // against deadline_ms
  std::size_t conn = 0;       // index of the owning connection in its
                              // loop
  std::uint64_t tag = 0;      // protocol-private cookie (HTTP: request
                              // sequence + keep-alive bit)
  bool raw = false;           // body is already wire bytes: skip the
                              // dispatcher AND the encoder, write as-is
                              // (canned protocol replies ride the queue
                              // to keep per-connection response order)
};

/// Backpressure hint for a shed frame: roughly how long the backlog
/// ahead needs to dispatch, assuming ~10 ms per 32 requests, capped so
/// a wildly overloaded server never tells clients to sleep forever.
std::int64_t retry_after_hint_ms(std::uint64_t depth) {
  return static_cast<std::int64_t>(
      std::min<std::uint64_t>((depth / 32 + 1) * 10, 1000));
}

/// Builds the "overloaded" refusal body for a request that was never
/// admitted. The envelope is parsed only to salvage the request id (the
/// response must be matchable client-side); one too corrupt to parse is
/// shed with a null id.
std::string shed_body(const std::string& body, std::string_view what,
                      std::uint64_t depth) {
  Json id;
  try {
    const Json req = Json::parse(body);
    if (req.is_object() && req.contains("id")) {
      id = req.at("id");
    }
  } catch (const CheckError&) {
  }
  shed_counter().inc();
  return error_response(id, kErrOverloaded, what, "",
                        retry_after_hint_ms(depth))
      .dump();
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
                       // closed here, an I/O error exits the server 1
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

class Loop;

/// What every loop of one serve_stream call shares.
struct Shared {
  Shared(Dispatcher& d, CancelToken& c, const ServerOptions& o,
         std::vector<StreamListener> l)
      : dispatcher(d), cancel(c), options(o), listeners(std::move(l)) {}

  Dispatcher& dispatcher;
  CancelToken& cancel;
  const ServerOptions& options;
  /// One HealthState for every loop: queue_depth is the global
  /// admission depth that ServerOptions::queue_max caps.
  HealthState health;
  /// Polled by every loop while it serves; closed by the last loop to
  /// stop serving, so no poll set still holds their fds.
  std::vector<StreamListener> listeners;
  /// Loops still serving (the listeners stay open until it reaches 0).
  std::atomic<int> serving{1};
  /// Guards the structure of *loops (serve_stream appends to it while
  /// the first loops already run), a placement's choice, and
  /// next_conn_id.
  std::mutex mu;
  std::deque<Loop>* loops = nullptr;
  /// Connection ids (the session owners), never reused.
  std::int64_t next_conn_id = 0;
  std::atomic<int> exit_code{0};
};

/// One poll loop on one thread. It owns its connections and answers
/// their requests inline, in arrival order, writing each reply as soon
/// as it is computed. Every loop polls the listeners between requests;
/// the one that accepts a connection places it on the loop with the
/// fewest live connections (a tie goes to the accepting loop, else to
/// the lowest index), through that loop's inbox and the wake fd in its
/// poll set. Loop 0 also serves the pipe.
class Loop {
 public:
  /// `wake_fd` (an eventfd, owned) wakes the loop for its inbox and for
  /// the drain; -1 when this is the only loop.
  Loop(Shared& shared, int wake_fd) : shared_(shared), wake_fd_(wake_fd) {}
  ~Loop() {
    if (wake_fd_ >= 0) {
      ::close(wake_fd_);
    }
  }
  Loop(const Loop&) = delete;
  Loop& operator=(const Loop&) = delete;

  /// Loop 0: serves the caller's pipe as one more connection.
  void add_pipe(int in, int out) {
    conns_.emplace_back(in, out, true, -1,
                        make_jsonl_protocol(shared_.options.max_frame_bytes));
    live_.fetch_add(1);
  }

  /// Serves until the drain, or -- in a pipe-only run -- until the pipe
  /// has ended. A loop that fails takes the server down: the other
  /// loops drain, and the exit code is 1. Either way it then wakes the
  /// other loops, closes the listeners if it is the last to stop
  /// serving, flushes, and closes every connection it owns.
  void serve() {
    try {
      run();
    } catch (...) {
      fail_server();
    }
    try {
      leave();
    } catch (...) {
      fail_server();  // nothing may escape the loop's thread
    }
  }

  /// Closes the connections handed over after this loop had exited.
  /// Call once every loop has returned.
  void close_inbox() {
    for (Connection& c : inbox_) {
      close_conn(c);
      release(c.id);
    }
    inbox_.clear();
  }

 private:
  void run();

  void fail_server() {
    shared_.exit_code.store(1);
    shared_.dispatcher.begin_drain();
  }

  void check_cancel() {
    if (shared_.cancel.stop_requested() && !shared_.dispatcher.draining()) {
      shared_.dispatcher.begin_drain();
    }
  }

  /// Teardown after run(), on the normal and the failure path.
  void leave() {
    // Only a failed run leaves admitted requests unanswered: they no
    // longer count against the global cap.
    for (std::size_t i = head_; i < queue_.size(); ++i) {
      if (!queue_[i].raw) {
        shared_.health.queue_depth.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    queue_.clear();
    head_ = 0;
    {
      // A loop stops serving only in the drain (or at the end of a
      // pipe-only run, which has no other loop). The others would see
      // it only at their next poll timeout.
      const std::lock_guard<std::mutex> lock(shared_.mu);
      for (Loop& loop : *shared_.loops) {
        if (&loop != this) {
          loop.wake();
        }
      }
    }
    if (shared_.serving.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      for (StreamListener& listener : shared_.listeners) {
        listener.close();
      }
    }
    flush_for_drain();
    for (Connection& c : conns_) {
      close_conn(c);
      release(c.id);
    }
    conns_.clear();
  }

  /// A connection of this loop is gone for good: it no longer counts for
  /// placement, and its session-owner count is released (-1 = the pipe).
  void release(std::int64_t id) {
    live_.fetch_sub(1);
    if (id >= 0) {
      shared_.dispatcher.connection_closed(id);
    }
  }

  /// A socket this loop accepted goes to the loop with the fewest live
  /// connections. A tie goes to this loop, which is polling and so not
  /// inside a request, else to the lowest index.
  void place(int fd, const StreamListener& listener) {
    std::unique_ptr<ConnProtocol> proto =
        listener.make_protocol(shared_.options.max_frame_bytes);
    Loop* target = this;
    std::int64_t id = -1;
    {
      // One placement at a time: two loops accepting at once must not
      // both pick the same least-loaded loop.
      const std::lock_guard<std::mutex> lock(shared_.mu);
      for (Loop& loop : *shared_.loops) {
        if (loop.live_.load() < target->live_.load()) {
          target = &loop;
        }
      }
      target->live_.fetch_add(1);
      id = shared_.next_conn_id++;
    }
    if (target == this) {
      conns_.emplace_back(fd, fd, false, id, std::move(proto));
      return;
    }
    {
      const std::lock_guard<std::mutex> lock(target->inbox_mu_);
      target->inbox_.emplace_back(fd, fd, false, id, std::move(proto));
    }
    target->wake();
  }

  /// Cuts the loop's poll short (no-op for a lone loop, which has no
  /// wake fd).
  void wake() {
    if (wake_fd_ >= 0) {
      const std::uint64_t one = 1;
      [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
    }
  }

  void adopt_inbox() {
    std::uint64_t count = 0;
    [[maybe_unused]] const ssize_t n = ::read(wake_fd_, &count, sizeof count);
    const std::lock_guard<std::mutex> lock(inbox_mu_);
    std::move(inbox_.begin(), inbox_.end(), std::back_inserter(conns_));
    inbox_.clear();
  }

  void close_conn(Connection& c) {
    if (c.fd >= 0 && !c.pipe) {
      ::close(c.fd);
    }
    c.fd = -1;
    c.outbuf.clear();
    c.outpos = 0;
  }

  // A connection that died of an I/O error. The pipe is the daemon's
  // only client, so losing it is a transport failure of the process.
  void fail_conn(Connection& c) {
    if (c.pipe) {
      shared_.exit_code.store(1);
    }
    close_conn(c);
  }

  // Writes as much of c.outbuf as the connection accepts. Returns false
  // if the connection died. A full socket buffer is not an error: the
  // remainder stays queued and the poll loop watches POLLOUT -- one
  // slow reader must never stall dispatch for the rest.
  bool flush_conn(Connection& c) {
    while (c.outpos < c.outbuf.size()) {
      const char* data = c.outbuf.data() + c.outpos;
      const std::size_t size = c.outbuf.size() - c.outpos;
      // The pipe's fds may share their file description with other
      // processes, so they are never switched to O_NONBLOCK and these
      // writes block. MSG_NOSIGNAL: a socket client that vanished
      // mid-response must produce EPIPE (slot reclaimed below), never a
      // process-killing SIGPIPE -- belt to the SIG_IGN suspenders in
      // serve_stream.
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
  }

  void send_conn(Connection& c, std::string_view bytes) {
    if (c.fd < 0) {
      return;
    }
    c.outbuf.append(bytes.data(), bytes.size());
    if (flush_conn(c) && c.pending_out() > kMaxConnWriteBufferBytes) {
      close_conn(c);  // reader has stalled; do not buffer unboundedly
    }
  }

  // A closing connection goes away once everything owed is flushed.
  static bool finished(const Connection& c) {
    return c.closing && c.inflight == 0 && c.queued_raw == 0 &&
           c.pending_out() == 0;
  }

  /// Admits one envelope of `c` under the global queue cap and the
  /// connection's in-flight cap: empty = admitted, otherwise the refusal
  /// body to send back.
  std::string admit(Connection& c, const std::string& body) {
    HealthState& health = shared_.health;
    const std::size_t queue_max = shared_.options.queue_max;
    const std::size_t conn_inflight_max = shared_.options.conn_inflight_max;
    std::uint64_t depth = health.queue_depth.load(std::memory_order_relaxed);
    do {
      if (queue_max > 0 && depth >= queue_max) {
        health.shed_total.fetch_add(1, std::memory_order_relaxed);
        return shed_body(
            body,
            format("admission queue full (%llu queued); back off and retry",
                   static_cast<unsigned long long>(depth)),
            depth);
      }
      if (conn_inflight_max > 0 && c.inflight >= conn_inflight_max) {
        health.shed_total.fetch_add(1, std::memory_order_relaxed);
        return shed_body(body,
                         format("connection in-flight cap (%zu) reached; "
                                "await responses before pipelining more",
                                conn_inflight_max),
                         depth);
      }
    } while (!health.queue_depth.compare_exchange_weak(
        depth, depth + 1, std::memory_order_relaxed));
    ++c.inflight;
    health.admitted_total.fetch_add(1, std::memory_order_relaxed);
    return {};
  }

  /// Answers the queue in order, each reply written as soon as it is
  /// computed. A cancel trip between two requests starts the drain, and
  /// the dispatcher refuses the rest with "draining".
  void dispatch_queue() {
    while (head_ < queue_.size()) {
      check_cancel();
      const PendingRequest& req = queue_[head_++];
      Connection& c = conns_[req.conn];
      if (req.raw) {
        if (c.queued_raw > 0) {
          --c.queued_raw;
        }
        send_conn(c, req.body);
        continue;
      }
      const std::uint64_t depth =
          shared_.health.queue_depth.fetch_sub(1, std::memory_order_relaxed) -
          1;
      queue_depth_gauge().set(static_cast<std::int64_t>(depth));
      const std::uint64_t now = mono_ms();
      // The connection's id is the session owner; the pipe's -1 is
      // exempt from per-connection session caps.
      const std::string response = shared_.dispatcher.handle_text(
          req.body, now > req.admit_ms ? now - req.admit_ms : 0, c.id);
      if (c.inflight > 0) {
        --c.inflight;
      }
      if (c.fd >= 0) {
        bool close_after = false;
        const std::string bytes =
            c.proto->encode_response(req.tag, response, &close_after);
        send_conn(c, bytes);
        if (close_after) {
          c.closing = true;
        }
      }
    }
    queue_.clear();
    head_ = 0;
  }

  /// The queue is empty, so no PendingRequest.conn index is live:
  /// retires connections whose work is done, then reclaims the slots
  /// (and protocol buffers) of closed connections instead of scanning
  /// them forever. Every request of a closed connection has been
  /// answered, so its session-owner count can be released.
  void reclaim() {
    for (Connection& c : conns_) {
      if (c.fd >= 0 && finished(c)) {
        close_conn(c);
      }
      if (c.fd < 0) {
        release(c.id);
      }
    }
    conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                [](const Connection& c) { return c.fd < 0; }),
                 conns_.end());
  }

  /// Reads what connection `ci` sent and queues its requests.
  void read_conn(std::size_t ci) {
    Connection& c = conns_[ci];
    char buf[64 << 10];
    const ssize_t n = ::read(c.fd, buf, sizeof buf);
    if (n == 0) {
      // EOF: the peer sent its last request. Read no more, deliver every
      // reply still owed, then close -- a half-closed client gets all of
      // them.
      c.closing = true;
      return;
    }
    if (n < 0) {
      if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
        fail_conn(c);
      }
      return;
    }
    out_.requests.clear();
    out_.close = false;
    c.proto->on_bytes(std::string_view(buf, static_cast<std::size_t>(n)),
                      &out_);
    const std::uint64_t now = mono_ms();
    for (ConnProtocol::Inbound& in : out_.requests) {
      if (!in.raw) {
        std::string refusal = admit(c, in.body);
        if (refusal.empty()) {
          queue_.push_back(
              PendingRequest{std::move(in.body), now, ci, in.tag, false});
          continue;
        }
        bool close_after = false;
        in.body = c.proto->encode_shed(in, refusal, &close_after);
        if (close_after) {
          c.closing = true;
        }
      }
      // Canned protocol replies and refusals ride the queue, so they are
      // written in request order relative to dispatched responses.
      queue_.push_back(
          PendingRequest{std::move(in.body), now, ci, in.tag, true});
      ++c.queued_raw;
    }
    if (out_.close) {
      error_counter().inc();
      c.closing = true;
    }
  }

  /// One poll round: wake-ups, accepts, writes and reads. Returns false
  /// if poll itself failed.
  bool poll_round() {
    // pfds: the wake fd, the listeners, then one entry per connection. A
    // closing connection only lingers to flush what it is owed (the
    // pipe's blocking writes never leave any); it is never read again.
    pfds_.clear();
    if (wake_fd_ >= 0) {
      pfds_.push_back({wake_fd_, POLLIN, 0});
    }
    const std::vector<StreamListener>& listeners = shared_.listeners;
    for (const StreamListener& listener : listeners) {
      pfds_.push_back({listener.fd, POLLIN, 0});
    }
    for (const Connection& c : conns_) {
      pfds_.push_back(
          {c.fd,
           static_cast<short>((c.closing ? 0 : POLLIN) |
                              (c.pending_out() > 0 ? POLLOUT : 0)),
           0});
    }
    const int rc = ::poll(pfds_.data(), pfds_.size(), kPollTimeoutMs);
    if (rc < 0 && errno != EINTR) {
      return false;
    }
    if (rc <= 0) {
      return true;
    }

    const std::size_t nwake = wake_fd_ >= 0 ? 1 : 0;
    const std::size_t nlisten = listeners.size();
    const std::size_t nconns = conns_.size();  // arrivals append past these
    if (nwake == 1 && (pfds_[0].revents & POLLIN) != 0) {
      adopt_inbox();
    }
    for (std::size_t li = 0; li < nlisten; ++li) {
      if ((pfds_[nwake + li].revents & POLLIN) == 0) {
        continue;
      }
      // EAGAIN is normal here (nonblocking listener, advisory POLLIN;
      // another loop may have taken the connection); one still queued
      // is re-reported.
      const int client = ::accept(listeners[li].fd, nullptr, nullptr);
      if (client >= 0) {
        set_nonblocking(client);
        set_cloexec(client);
        place(client, listeners[li]);
      }
    }
    for (std::size_t ci = 0; ci < nconns; ++ci) {
      Connection& c = conns_[ci];
      const short revents = pfds_[nwake + nlisten + ci].revents;
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
      if ((revents & (POLLIN | POLLHUP)) != 0) {
        read_conn(ci);
      }
    }
    return true;
  }

  /// Drain contract: in-flight requests were answered, but their frames
  /// may still sit in write buffers. Gives slow readers a bounded grace
  /// window before the sockets are torn down.
  void flush_for_drain() {
    const std::uint64_t flush_deadline = mono_ms() + kDrainFlushMs;
    std::vector<std::size_t> conn_of_pfd;
    while (mono_ms() < flush_deadline) {
      pfds_.clear();
      conn_of_pfd.clear();
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        if (conns_[i].fd >= 0 && conns_[i].pending_out() > 0) {
          pfds_.push_back({conns_[i].fd, POLLOUT, 0});
          conn_of_pfd.push_back(i);
        }
      }
      if (pfds_.empty()) {
        break;
      }
      if (::poll(pfds_.data(), pfds_.size(), kPollTimeoutMs) < 0 &&
          errno != EINTR) {
        break;
      }
      for (std::size_t pi = 0; pi < pfds_.size(); ++pi) {
        Connection& c = conns_[conn_of_pfd[pi]];
        if ((pfds_[pi].revents & (POLLERR | POLLNVAL | POLLHUP)) != 0) {
          close_conn(c);
        } else if ((pfds_[pi].revents & POLLOUT) != 0) {
          flush_conn(c);
        }
      }
    }
  }

  Shared& shared_;
  const int wake_fd_;
  /// Connections owned or waiting in the inbox: what placement compares.
  std::atomic<std::size_t> live_{0};
  std::mutex inbox_mu_;
  std::vector<Connection> inbox_;  // guarded by inbox_mu_: sockets
                                   // other loops accepted for this one
  std::vector<Connection> conns_;
  std::vector<PendingRequest> queue_;  // read, not yet answered; emptied
                                       // by every dispatch_queue()
  std::size_t head_ = 0;               // queue_[head_..] not yet taken
  std::vector<pollfd> pfds_;           // reused by every poll round
  ConnProtocol::Output out_;           // reused by every read
};

void Loop::run() {
  // A pipe-only run (one loop, no listener) ends with its pipe.
  const bool ends_with_pipe = shared_.listeners.empty();
  while (true) {
    check_cancel();
    dispatch_queue();
    if (shared_.dispatcher.draining()) {
      break;  // queue answered above; refuse everything else
    }
    reclaim();
    if (ends_with_pipe && conns_.empty()) {
      break;
    }
    if (!poll_round()) {
      fail_server();
      break;
    }
  }
}

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
  // A pipe-only run has no connection to place, so it is one loop.
  const int num_loops =
      listeners.empty() ? 1 : resolve_num_threads(options.num_threads);
  Shared shared(dispatcher, cancel, options, std::move(listeners));
  shared.health.queue_max.store(options.queue_max, std::memory_order_relaxed);
  dispatcher.attach_health(&shared.health);

  std::deque<Loop> loops;  // grows without moving its loops
  shared.loops = &loops;
  std::vector<std::thread> threads;
  {
    // Loops started here may already accept; placement waits for this.
    const std::lock_guard<std::mutex> lock(shared.mu);
    const auto new_wake_fd = [] {
      return ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    };
    // A lone loop needs no wake fd; without one, loop 0 stays alone.
    const int first_wake_fd = num_loops > 1 ? new_wake_fd() : -1;
    Loop& first = loops.emplace_back(shared, first_wake_fd);
    if (pipe_in >= 0) {
      first.add_pipe(pipe_in, pipe_out);
    }
    for (int i = 1; i < num_loops && first_wake_fd >= 0; ++i) {
      // Out of fds or threads: serve with the loops started so far.
      const int wake_fd = new_wake_fd();
      if (wake_fd < 0) {
        break;
      }
      Loop& loop = loops.emplace_back(shared, wake_fd);
      shared.serving.fetch_add(1, std::memory_order_relaxed);
      try {
        threads.emplace_back([&loop] { loop.serve(); });
      } catch (const std::system_error&) {
        shared.serving.fetch_sub(1, std::memory_order_relaxed);
        loops.pop_back();
        break;
      }
    }
  }
  loops.front().serve();
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (Loop& loop : loops) {
    loop.close_inbox();
  }
  dispatcher.attach_health(nullptr);
  return shared.exit_code.load();
}

}  // namespace shlcp::svc
