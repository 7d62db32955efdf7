// Resilient synchronous client for the shlcp.svc.v1 protocol.
//
// Client wraps one logical connection to a shlcpd daemon with the full
// retry discipline the resilience layer (DESIGN.md §14) expects of
// callers:
//
//  - per-attempt timeouts (a stalled daemon never wedges the caller),
//  - capped exponential backoff with deterministic jitter (seeded, so
//    a chaos run's retry schedule replays exactly),
//  - automatic reconnect after transport failures, resets, timeouts,
//    or lost framing,
//  - end-to-end integrity: every request carries the "check" digest of
//    its canonical (op, params) payload, and every ok response's
//    "digest" is verified against the result bytes actually received
//    -- a corrupted answer is retried, never returned,
//  - honor for the server's "overloaded" retry_after_ms backpressure
//    hint.
//
// Retries are idempotent-safe by construction: the service keys its
// artifact cache on the canonical (op, params) payload, so a retried
// request replays byte-identical result bytes; each *attempt* uses a
// fresh wire id, so a late response from an abandoned attempt is
// recognized and discarded instead of being mismatched.
//
// Retriable outcomes: transport errors (connect/write/read failure,
// EOF, reset), attempt timeouts, lost framing, digest mismatches, and
// the error codes overloaded / draining / deadline_exceeded /
// integrity / bad_frame (the last also forces a reconnect -- framing
// is gone) / invalid_request (this client builds every envelope
// itself, so an unparseable one means corrupted bytes -- the one layer
// the "check" digest cannot protect). invalid_params / unknown_op /
// internal are the caller's bug or the server's; they return
// immediately.
//
// The transport is a FaultyTransport, so tests and the chaos bench
// inject faults on the *client's* side of the wire by passing a
// non-calm ChaosPlan -- the daemon under test stays unmodified.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "service/chaos.h"
#include "service/proto.h"
#include "util/json.h"

namespace shlcp::svc {

/// Retry schedule: attempt n (1-based) failing retriably sleeps
/// jitter(min(base_backoff_ms << (n-1), max_backoff_ms)) before attempt
/// n+1, where jitter draws uniformly from [ceil(b/2), b] using an Rng
/// keyed on (seed, call index, attempt) -- deterministic, so REPRO
/// strings replay the exact schedule. A server retry_after_ms hint
/// raises (never lowers) the sleep.
struct RetryPolicy {
  int max_attempts = 4;
  std::uint64_t base_backoff_ms = 10;
  std::uint64_t max_backoff_ms = 500;
  std::uint64_t seed = 0;
};

struct ClientOptions {
  /// Per-attempt response timeout.
  std::uint64_t timeout_ms = 5000;
  RetryPolicy retry;
  /// Faults injected on this client's side of the wire ("calm" =
  /// transparent).
  ChaosPlan chaos;
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
};

/// What one call() observed, summed across its attempts.
struct ClientStats {
  std::uint64_t calls = 0;
  std::uint64_t attempts = 0;  // wire sends (>= calls)
  std::uint64_t retries = 0;   // attempts beyond each call's first
  std::uint64_t reconnects = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t transport_errors = 0;
  std::uint64_t digest_mismatches = 0;  // corrupted responses caught
  std::uint64_t refused_overloaded = 0;
  std::uint64_t refused_draining = 0;
  std::uint64_t refused_deadline = 0;
  std::uint64_t refused_integrity = 0;
  std::uint64_t backoff_ms_total = 0;

  /// Field-wise sum: merges per-worker stats into one run total.
  ClientStats& operator+=(const ClientStats& o) {
    calls += o.calls;
    attempts += o.attempts;
    retries += o.retries;
    reconnects += o.reconnects;
    timeouts += o.timeouts;
    transport_errors += o.transport_errors;
    digest_mismatches += o.digest_mismatches;
    refused_overloaded += o.refused_overloaded;
    refused_draining += o.refused_draining;
    refused_deadline += o.refused_deadline;
    refused_integrity += o.refused_integrity;
    backoff_ms_total += o.backoff_ms_total;
    return *this;
  }
};

/// Outcome of one call() after retries.
struct CallResult {
  /// How the *final* attempt failed below the protocol. The router and
  /// the supervisor's wedge detection need the distinction a bare ""
  /// error code erases: a refused connection means the backend process
  /// is gone (mark down, reroute), a timeout means it is alive but not
  /// answering (slow or wedged -- counted separately in fleet health).
  enum class FailKind {
    kNone,         // ok, or the server answered with an error code
    kConnRefused,  // connect() failed: nothing is listening
    kTimeout,      // connected, but no response within timeout_ms
    kTransport,    // write/read/poll failure, EOF, reset, lost framing
  };

  /// True iff a verified ok response arrived.
  bool ok = false;
  /// The final wire response (null when every attempt failed below the
  /// protocol -- timeout / transport death).
  Json response;
  /// ok only: compact dump of the "result" document, byte-exact as
  /// received (what the chaos harness compares against the oracle).
  std::string result_dump;
  /// !ok only: the wire error code, or "" for sub-protocol failures.
  std::string error_code;
  std::string error_detail;
  FailKind fail_kind = FailKind::kNone;
  int attempts = 0;
};

class Client {
 public:
  /// Opens one connection; nullptr = connection refused/failed (the
  /// retry loop backs off and calls again).
  using Connector = std::function<std::unique_ptr<FaultyTransport>()>;

  Client(Connector connector, ClientOptions options);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connector for a unix-domain socket at `path`, applying
  /// options.chaos to every connection it opens.
  static Connector unix_connector(std::string path, ChaosPlan chaos);

  /// Connector for a TCP backend at numeric-IPv4 `host`:`port`
  /// (TCP_NODELAY set -- the protocol is request/response).
  static Connector tcp_connector(std::string host, int port,
                                 ChaosPlan chaos);

  /// Connector for a backend target spec: "unix:<path>" or
  /// "tcp:<host>:<port>" (a bare path is taken as unix). Returns an
  /// empty Connector on a malformed spec. This is the grammar
  /// shlcp_router and shlcp_loadgen accept for backends.
  static Connector connector_for(const std::string& target,
                                 ChaosPlan chaos);

  /// One request, retried per the policy. `deadline_ms` > 0 is attached
  /// to the request (each attempt gets the full budget afresh).
  CallResult call(const std::string& op, const Json& params,
                  std::uint64_t deadline_ms = 0);

  [[nodiscard]] const ClientStats& stats() const { return stats_; }
  [[nodiscard]] const ClientOptions& options() const { return options_; }

 private:
  /// Attempt outcomes that drive the retry loop.
  enum class Attempt { kOk, kRetriable, kRetriableReconnect, kFatal };

  bool ensure_connected();
  void drop_connection();
  Attempt attempt_once(const std::string& body, const std::string& wire_id,
                       CallResult* out, std::int64_t* retry_after_ms);

  Connector connector_;
  ClientOptions options_;
  std::unique_ptr<FaultyTransport> transport_;
  std::unique_ptr<FrameReader> reader_;
  std::uint64_t next_attempt_id_ = 0;
  std::uint64_t call_index_ = 0;
  ClientStats stats_;
};

}  // namespace shlcp::svc
