// The serving entry point of shlcpd and shlcp_router: serve_transports
// runs a pipe, a unix-domain socket, TCP, and/or the HTTP gateway.
//
// serve_transports binds and listen()s every requested listener first.
// If any of them cannot bind, it closes the others, unlinks the unix
// path, and returns 1 at once without publishing a port file. Otherwise
// it publishes the port file and runs the poll loops (serve_stream,
// netloop.h) over every listener and the pipe:
// ServerOptions::num_threads loops, one per thread, the calling thread
// running the first. They
// share one dispatcher, one admission cap, one HealthState and one
// cancel token, so the artifact cache, the `health` counters and the
// drain are shared by every transport. That is how shlcpd exposes
// --socket, --tcp and --http at once.
//
// Each accepted connection is placed on one loop for its lifetime (the
// loop with the fewest live connections). The loop accumulates bytes
// per connection, extracts complete request frames, and answers them
// inline in arrival order, writing each reply as soon as it is
// computed; the service's operations are internally sequential, so the
// parallelism is across connections on different loops. Each request
// is stamped at admission; the queueing delay is charged against its
// deadline_ms by Service::handle.
//
// Readiness is poll()-driven with a short timeout rather than blocking
// reads, because the repo's SigintGuard installs its handler with
// signal() (glibc semantics: SA_RESTART), so a blocking read would
// never observe a ^C -- the loop instead polls the CancelToken every
// wakeup. On a trip the server calls Dispatcher::begin_drain():
// requests already dispatched finish and are delivered, every frame
// still queued (or arriving later) is answered with the "draining"
// error, the listeners stop accepting, and each loop exits once its
// queue is flushed; the server then returns 0. That three-part contract
// (finish in-flight, refuse queued, exit clean) is pinned by
// tests/service_test.cpp and exercised with a real SIGINT in the CI
// service-smoke job.
//
// Every connection, the pipe included, follows one end-of-stream rule:
// when its read side reaches EOF the loop reads no more, delivers every
// reply still owed, then closes it. A FrameReader protocol error
// (malformed header, oversized frame) is answered with one "bad_frame"
// error response and ends that stream the same way -- framing is
// unrecoverable once the length prefix is lost. With no listener, the
// loop returns 0 once the pipe has ended.
//
// Socket connections are non-blocking with per-connection write
// buffers: a client that stops reading never stalls dispatch for the
// others -- its responses queue (up to a 64 MiB cap, then the
// connection is closed) and flush on POLLOUT. POLLERR/POLLNVAL close
// the connection, closed slots are reclaimed between poll rounds, and
// a drain flushes still-buffered responses for a bounded grace window
// before teardown. Socket sends use MSG_NOSIGNAL (and the loop ignores
// SIGPIPE) so a vanished client can never kill the daemon. The pipe's
// fds stay blocking (they may be shared with other processes), and a
// write error on it -- its reader is gone -- exits 1.
//
// Overload shedding (DESIGN.md §14): admission is bounded by
// ServerOptions::queue_max globally (over every loop's queue) and
// conn_inflight_max per connection. A frame past either cap is answered
// immediately with the "overloaded" error carrying a retry_after_ms
// hint scaled to the backlog -- the client backs off, the queues never
// grow without bound, and accepted requests keep their latency. Admission/shed
// totals and live queue depth feed the service's `health` op.

#pragma once

#include <cstddef>
#include <string>

#include "service/proto.h"
#include "service/service.h"
#include "util/budget.h"

namespace shlcp::svc {

struct ServerOptions {
  /// Dispatcher configuration (LCP registry is fixed; cache is tunable).
  /// Ignored when `dispatcher` is set.
  ServiceConfig service;
  /// The request handler behind the transports. Null (the default) =
  /// serve_transports owns a Service built from `service`. Non-null
  /// (not owned; must outlive the serve call) puts a caller's Service
  /// -- or a Router -- behind them.
  Dispatcher* dispatcher = nullptr;
  /// Poll loops, one thread each, the calling thread included; 0
  /// resolves via SHLCP_NUM_THREADS then the hardware (util/parallel.h).
  /// A pipe-only run uses one.
  int num_threads = 0;
  /// Admission cap on queued-but-undispatched requests. A frame
  /// arriving past it is refused with "overloaded" plus a
  /// retry_after_ms backpressure hint instead of growing the queue
  /// without bound. 0 = unbounded (the pre-resilience behavior).
  std::size_t queue_max = 512;
  /// Per-connection cap on admitted-but-unanswered requests, so one
  /// pipelining-happy client cannot monopolize the admission queue
  /// (the pipe counts as one connection). 0 = unbounded.
  std::size_t conn_inflight_max = 128;
  /// Per-frame byte cap (FrameReader); HTTP body cap in the gateway.
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// External stop flag (not owned; must outlive the serve call). When
  /// null the server uses an internal token, reachable only via SIGINT.
  CancelToken* cancel = nullptr;
  /// Route SIGINT into the token for the server's lifetime.
  bool arm_sigint = false;
};

/// Which transports serve_transports should run. Empty string = that
/// listener is disabled. tcp/http take "[HOST:]PORT" (default host
/// 127.0.0.1; port 0 = ephemeral).
struct TransportSpec {
  std::string unix_path;
  std::string tcp;
  std::string http;
  /// When set, a JSON document {"unix": path?, "tcp": port?, "http":
  /// port?} is written here once every requested listener is bound and
  /// listening -- how scripts, bench_fleet, and the supervisor discover
  /// ephemeral ports. Removed again on graceful exit, so the file's
  /// existence is a truthful readiness signal (a stale file always
  /// means a crash).
  std::string port_file;
  /// Pipe mode: one pre-connected JSONL connection that reads pipe_in
  /// and writes pipe_out (shlcpd --pipe: 0 and 1). -1 = no pipe. Both
  /// fds stay blocking and stay open; the caller owns them.
  int pipe_in = -1;
  int pipe_out = -1;
};

/// Parses "[HOST:]PORT" (host defaults to 127.0.0.1). Returns false on
/// a malformed spec.
bool parse_hostport(const std::string& spec, std::string* host, int* port);

/// Serves every requested transport from the poll loops, the first on
/// the calling thread (see the top of this header). Logs one "serving" line per
/// listener to stderr, with the bound port, once all are listening.
/// Returns a process exit code: 0 after a clean drain or the end of a
/// pipe-only run, 1 when a listener cannot bind, the spec names no
/// transport, or the pipe fails.
int serve_transports(const TransportSpec& spec, const ServerOptions& options);

}  // namespace shlcp::svc
