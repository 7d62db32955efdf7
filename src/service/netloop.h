// The poll-driven server loops behind every transport (DESIGN.md §15).
// Private to src/service: serve_transports (server.h) is the public
// entry point.
//
// serve_stream runs over any mix of bound listeners (unix socket, TCP,
// HTTP) and at most one pre-connected pipe (shlcpd --pipe). It runs
// ServerOptions::num_threads poll loops, one per thread, the caller's
// thread included; a pipe-only run uses one. Each loop owns its
// connections -- non-blocking sockets, per-connection read buffers,
// bounded write buffers flushed on POLLOUT -- and answers their
// requests inline, in arrival order, writing each reply as soon as it
// is computed. Loop 0 also serves the pipe. Every loop polls the
// listeners between requests; the one that accepts a connection hands
// it to the loop with the fewest live connections (a tie goes to the
// accepting loop, else to the lowest index) through that loop's inbox
// and a wake fd in its poll set. The loops share one dispatcher, one
// HealthState, one admission cap (a global depth that
// ServerOptions::queue_max bounds over every loop's queue) and one
// counter of connection ids; every loop keeps the three-part drain
// contract (finish in-flight, refuse queued, exit 0). The listeners
// differ only in (a) how their fd was bound and (b) the ConnProtocol
// that turns raw bytes into request envelopes and dispatcher responses
// into wire bytes.
//
// The split of responsibilities:
//
//   serve_stream      owns poll(), accept() and placement, admission,
//                     inline dispatch, ordered write-back, shedding,
//                     drain, and connection lifetime. Protocol-blind.
//   ConnProtocol      one instance per connection. on_bytes() consumes
//                     raw reads and emits zero or more Inbound request
//                     envelopes (plus optional canned bytes -- e.g. an
//                     HTTP 404 -- which are sequenced through the same
//                     ordering path as real responses so a pipelined
//                     client never sees replies out of order).
//                     encode_response()/encode_shed() map dispatcher
//                     output and admission refusals back to the wire.
//   Dispatcher        Service (local compute) or Router (fleet
//                     forwarding); see service.h.
//
// Ordering invariant: within one connection, responses are written in
// request order. The loop guarantees it for dispatched requests (one
// loop serves a connection, and its queue is answered in arrival
// order); protocols guarantee it for canned replies by emitting them
// as `raw` Inbounds that ride the queue instead of bypassing it.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "service/server.h"
#include "service/service.h"
#include "util/budget.h"

namespace shlcp::svc {

/// Per-connection wire protocol adapter. One instance per accepted
/// connection; the loop owns it. Implementations are single-threaded
/// (only the loop that serves the connection touches them).
class ConnProtocol {
 public:
  virtual ~ConnProtocol() = default;

  struct Inbound {
    std::string body;       // envelope (or raw wire bytes when raw)
    std::uint64_t tag = 0;  // echoed to encode_response()
    bool raw = false;       // pre-encoded reply; bypass dispatch+encode
  };

  struct Output {
    std::vector<Inbound> requests;  // admit these, in arrival order
    bool close = false;             // framing lost: flush, then close
  };

  /// Consumes one raw read. Emits complete requests (and canned raw
  /// replies) in arrival order; sets close when the stream is
  /// unrecoverable (the loop stops reading and closes once flushed).
  virtual void on_bytes(std::string_view data, Output* out) = 0;

  /// Encodes a dispatcher response for the request tagged `tag`. Sets
  /// *close_after when the connection must end after this response
  /// (e.g. HTTP "Connection: close").
  virtual std::string encode_response(std::uint64_t tag,
                                      const std::string& response,
                                      bool* close_after) = 0;

  /// Encodes an admission refusal (an "overloaded" response body) for
  /// a request that was never queued.
  virtual std::string encode_shed(const Inbound& req,
                                  const std::string& refusal_body,
                                  bool* close_after) = 0;
};

using ProtocolFactory =
    std::function<std::unique_ptr<ConnProtocol>(std::size_t max_frame_bytes)>;

/// Length-prefixed JSONL (proto.h): requests and responses are matched
/// by their "id" member. A framing error emits one bad_frame response
/// and ends the stream. Spoken on unix, TCP and the pipe.
std::unique_ptr<ConnProtocol> make_jsonl_protocol(std::size_t max_frame_bytes);

/// A bound, listening stream socket and the protocol its connections
/// speak.
struct StreamListener {
  int fd = -1;
  /// Undoes the bind when the listener stops accepting (unix: unlink
  /// the socket path). May be empty.
  std::function<void()> unbind;
  ProtocolFactory make_protocol;

  /// Stops listening: closes fd and undoes the bind. Idempotent.
  void close();
};

/// Binds + listens on a unix-domain socket at `path` (an existing
/// socket file is replaced). Returns fd < 0 with errno set on failure.
/// The returned unbind unlinks the path.
StreamListener listen_unix(const std::string& path);

/// Binds + listens on TCP `host:port` (port 0 picks an ephemeral port).
/// Returns fd < 0 with errno set on failure; *bound_port receives the
/// actual port. Numeric IPv4 hosts only ("127.0.0.1", "0.0.0.0") --
/// the daemon is an internal-fleet component, not a resolver.
StreamListener listen_tcp(const std::string& host, int port,
                          int* bound_port);

/// The server loops: accept connections on every listener, speak each
/// listener's protocol on its connections, and -- when pipe_in >= 0 --
/// serve one JSONL connection that reads pipe_in and writes pipe_out.
/// The pipe fds stay blocking and stay open (the caller owns them); an
/// I/O error on the pipe makes the exit code 1. Dispatches through
/// `dispatcher` and honors the admission/drain contract documented in
/// server.h until `cancel` trips, or until no listener and no
/// connection is left (a pipe that reached EOF or lost its framing).
/// Owns and closes every listener. Returns a process exit code (0 =
/// clean, including clean drains).
int serve_stream(std::vector<StreamListener> listeners, int pipe_in,
                 int pipe_out, Dispatcher& dispatcher, CancelToken& cancel,
                 const ServerOptions& options);

}  // namespace shlcp::svc
