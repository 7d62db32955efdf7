// Request dispatcher of the certification service.
//
// Service is the transport-independent core of shlcpd: it owns the LCP
// registry (every named scheme of src/certify, both repaired and
// literal variants), the audit instance pool, and the artifact cache,
// and maps one parsed request to one response. The server (server.h),
// the bench (bench/bench_service.cpp), and the tests all talk to the
// same handle() entry point, which is what makes "daemon responses are
// bit-identical to direct library calls" a checkable claim rather than
// a hope.
//
// Operations (schema shlcp.svc.v1):
//
//   run_decoder     execute a named LCP's decoder distributively on an
//                   instance (named from the audit pool or inline),
//                   honest or explicit certificates, optionally under a
//                   FaultPlan descriptor. The result and any execution
//                   error carry the lcp/audit repro string of the run.
//   check_coloring  verify a supplied k-coloring (violating edge named)
//                   or solve for one (graph/algorithms::k_coloring).
//   search_witness  replay a hiding-witness family search
//                   (nbhd/witness.h) and report the odd cycle.
//   build_nbhd      build V(D, n) over a graph family spec from the
//                   exhaustive or proved source (nbhd/aviews.h) and
//                   report its shape + 2-colorability.
//   info            service metadata + live cache stats (never cached).
//   health          load snapshot for routers and supervisors: queue
//                   depth/cap, admitted/shed totals, drain state, cache
//                   stats, session-table occupancy (never cached; see
//                   HealthState).
//   session_open    open an interactive session (src/interactive,
//                   DESIGN.md §17): params carry the client-chosen
//                   "session" id (proto.h's grammar; the reserved
//                   c<digits> namespace is refused), the "protocol"
//                   (default kcol-commit), an "instance", and protocol
//                   params (k, rounds, optional seed). Refused with
//                   "overloaded" + retry_after_ms when a session cap is
//                   hit -- the same shed path queue admission uses.
//   session_step    deliver one prover message ("msg") to the session;
//                   replies carry the verifier's challenge / verdict. A
//                   message that does not fit the session state is
//                   refused with "session_state" and the session is
//                   unchanged; an unknown (or expired) id gets
//                   "session_not_found".
//   session_close   abort a live session early (aborted sessions are
//                   accounted separately from completed/expired ones).
//
// The op table (op_table() below) is the single list of these ops: each
// row names an op, says whether its result is cached, how the router
// places it on the ring, and which Service member answers it. Cacheable
// ops (run_decoder, check_coloring, search_witness, build_nbhd) store
// the *dumped* result string under artifact_key(op, params), and a hit
// splices those bytes into the response verbatim (ok_response_text) --
// no parse, no re-dump, and a miss sends the very string it stores;
// info, health and the stateful session ops are never cached. Every
// admitted op bumps service.<op>.requests and records into the
// service.<op>.latency_ns histogram (both bound once per row); errors
// bump service.errors. An op that is not in the table is refused with
// "unknown_op" before any per-op metric is touched.
//
// Resilience (DESIGN.md §14): a request's optional "check" digest is
// recomputed from the parsed params and a mismatch is refused with
// "integrity" (a corrupted-in-flight request is never answered); every
// ok response carries a "digest" of its result bytes for client-side
// verification. deadline_ms is enforced twice: before work (queue
// delay already past it -> "deadline_exceeded" without dispatch) and
// at frame boundaries inside build_nbhd (the one op long enough to
// expire mid-flight), via the resumable builders' wall budget.
//
// Admission -- parse, drain refusal, envelope validation, the pre-work
// deadline check, the integrity check and the op lookup -- is
// Dispatcher's, shared with the Router (router.h) line for line.
//
// Draining: begin_drain() flips a flag after which every request is
// answered with the "draining" error and nothing new is dispatched --
// in-flight handle() calls finish normally. The server trips this from
// SIGINT; tests and the bench trip it directly.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "interactive/table.h"
#include "lcp/audit.h"
#include "lcp/decoder.h"
#include "service/cache.h"
#include "service/proto.h"
#include "util/metrics.h"

namespace shlcp::svc {

/// Error codes of the wire protocol (DESIGN.md §12 lists the contract).
inline constexpr const char* kErrBadFrame = "bad_frame";
inline constexpr const char* kErrInvalidRequest = "invalid_request";
inline constexpr const char* kErrUnknownOp = "unknown_op";
inline constexpr const char* kErrInvalidParams = "invalid_params";
inline constexpr const char* kErrDeadline = "deadline_exceeded";
inline constexpr const char* kErrDraining = "draining";
inline constexpr const char* kErrOverloaded = "overloaded";
inline constexpr const char* kErrIntegrity = "integrity";
inline constexpr const char* kErrInternal = "internal";
/// Session ops only. Both are deliberately NOT in the client's
/// retriable-code whitelist: blindly retrying a non-idempotent session
/// step could double-deliver a message.
inline constexpr const char* kErrSessionNotFound = "session_not_found";
inline constexpr const char* kErrSessionState = "session_state";

/// Limits and determinism knobs of the interactive session table.
struct SessionConfig {
  /// A session untouched this long is expired on the next table op.
  std::uint64_t ttl_ms = 30'000;
  /// Live-session caps; hitting either refuses the open with
  /// "overloaded" + a retry_after_ms hint (the shed path).
  std::size_t global_max = 256;
  std::size_t per_conn_max = 64;
  /// Base of every session's challenge seed (mixed with the session id
  /// and the client's optional "seed" param).
  std::uint64_t seed = 0x1A5EEDULL;
  /// Injectable monotonic clock (ms) for deterministic TTL tests;
  /// empty = steady_clock.
  std::function<std::uint64_t()> clock;
};

struct ServiceConfig {
  CacheConfig cache;
  SessionConfig sessions;
};

/// Live load counters of the transport loops, surfaced by the `health`
/// op -- the fields a shard router polls to steer traffic. The server
/// owns one for all of its loops and attaches it; atomics because every
/// loop updates them while the others read them mid-dispatch.
struct HealthState {
  std::atomic<std::uint64_t> queue_depth{0};     // admitted, not dispatched,
                                                 // summed over the loops
  std::atomic<std::uint64_t> queue_max{0};       // admission cap (0 = none)
  std::atomic<std::uint64_t> admitted_total{0};  // frames accepted
  std::atomic<std::uint64_t> shed_total{0};      // refused "overloaded"
};

class Service;
struct Admitted;

/// How a router places an op on its ring (DESIGN.md §15).
enum class OpRoute {
  kArtifact,      // by artifact_key(op, params): cache locality
  kSession,       // by the session id alone: session affinity
  kFanOutInfo,    // on every backend; the router sums the info answers
  kFanOutHealth,  // on every backend; the router lists the health answers
};

/// One row of the op table: an op of the wire protocol and every rule
/// that follows from its name.
struct OpSpec {
  std::string_view name;
  /// The result is stored under artifact_key(op, params) and replayed.
  bool cacheable;
  OpRoute route;
  /// The Service member that answers it.
  Json (Service::*run)(const Admitted&);
};

/// The op table: the single list of the ops a Dispatcher admits, in
/// the order `info` reports them.
std::span<const OpSpec> op_table();

/// The row named `name`, or nullptr for an unknown op.
const OpSpec* find_op(std::string_view name);

/// A request that passed admission, as Dispatcher::serve sees it.
struct Admitted {
  Admitted(const OpSpec& op, Request req, std::int64_t conn,
           std::optional<std::string> key)
      : op(op), req(std::move(req)), conn(conn), key_(std::move(key)) {}

  /// artifact_key(op, params), computed on first use: the integrity
  /// check, the cache and the ring share one computation.
  const std::string& key() {
    if (!key_) {
      key_ = artifact_key(req.op, req.params);
    }
    return *key_;
  }

  const OpSpec& op;
  /// req.deadline_ms is the unexpired budget left after the queue
  /// delay (0 = none).
  Request req;
  /// Id of the transport connection the frame arrived on (-1 = none).
  std::int64_t conn;

 private:
  std::optional<std::string> key_;
};

/// What a transport loop needs from whatever answers its requests.
/// Service implements it by computing locally; Router (router.h)
/// implements it by forwarding to a fleet of backends -- which is what
/// lets shlcpd's pipe/unix/TCP/HTTP loops and shlcp_router share one
/// server implementation (netloop.h) verbatim.
///
/// The Dispatcher admits every request, in this order: parse the body
/// (else "invalid_request"), refuse while draining ("draining"),
/// validate the envelope ("invalid_request"), refuse a request whose
/// queue delay already passed its deadline ("deadline_exceeded"),
/// verify its "check" digest ("integrity"), and look its op up in the
/// op table ("unknown_op"). A subclass implements only serve(): what it
/// does with an admitted request.
///
/// Implementations must be thread-safe: each of the server's poll loops
/// calls handle_text() and connection_closed() on its own thread.
class Dispatcher {
 public:
  virtual ~Dispatcher() = default;

  /// Handles one raw frame body: admit, serve, serialize. Never throws
  /// -- malformed input becomes an error response. `elapsed_ms` is how
  /// long the request has already waited since admission (the server's
  /// queue delay); it is charged against the request's deadline_ms.
  /// `conn` is the id of the transport connection the frame arrived on
  /// (-1 = none / in-process); Service attributes session opens to it
  /// for the per-connection cap.
  std::string handle_text(const std::string& body,
                          std::uint64_t elapsed_ms = 0,
                          std::int64_t conn = -1);

  /// Same, on an already-parsed document, answered as a parsed
  /// document: Json::parse of the response text (in-process callers).
  Json handle(const Json& request, std::uint64_t elapsed_ms = 0,
              std::int64_t conn = -1);

  /// The transport loop calls this once connection `conn` is closed and
  /// every request it sent has been answered. Ids are never reused.
  virtual void connection_closed(std::int64_t conn) { (void)conn; }

  /// After this, every request is refused with the "draining" error.
  void begin_drain() { draining_.store(true, std::memory_order_relaxed); }

  [[nodiscard]] bool draining() const {
    return draining_.load(std::memory_order_relaxed);
  }

  /// Surfaces the transport loops' load counters through the `health`
  /// op. Not owned; must outlive every handle() call. Without one the
  /// op reports zeros (in-process use). Atomic because handle() reads
  /// it on other threads.
  void attach_health(const HealthState* health) {
    health_.store(health, std::memory_order_release);
  }

 protected:
  /// `name` ("service" or "router") prefixes the <name>.requests,
  /// <name>.errors and <name>.integrity_rejects counters and names the
  /// dispatcher in the "draining" refusal.
  explicit Dispatcher(std::string name);

  /// Answers one admitted request with the response text.
  virtual std::string serve(Admitted& request) = 0;

  /// An error response's text; bumps <name>.errors.
  std::string refuse(const Json& id, std::string_view code,
                     std::string_view message, std::string_view repro = "",
                     std::int64_t retry_after_ms = -1);

  /// The `health` op's "queue" member: the attached HealthState's
  /// counters, zeros without one.
  [[nodiscard]] Json queue_health() const;

 private:
  /// Admits a parsed request and serves it: the response text.
  std::string respond(const Json& request, std::uint64_t elapsed_ms,
                      std::int64_t conn);

  std::string name_;
  metrics::Counter& requests_;
  metrics::Counter& errors_;
  metrics::Counter& integrity_rejects_;
  std::atomic<bool> draining_{false};
  std::atomic<const HealthState*> health_{nullptr};
};

/// Transport-independent request dispatcher. Thread-safe: handle() may
/// be called concurrently (one call per server poll loop); the
/// registries are immutable after construction and the cache locks
/// internally.
class Service : public Dispatcher {
 public:
  explicit Service(ServiceConfig config = {});
  ~Service() override;

  [[nodiscard]] CacheStats cache_stats() const { return cache_.stats(); }

  /// Live session-table occupancy (also surfaced by info/health).
  /// Sweeps expired sessions first so the snapshot is never stale:
  /// expiry is time-driven and must not wait for the next session op.
  [[nodiscard]] ia::SessionCounters session_counters() {
    sessions_.sweep();
    return sessions_.counters();
  }

  /// Releases the closed connection's per-connection session count; its
  /// live sessions stay open until they finish or expire (DESIGN.md §17).
  void connection_closed(std::int64_t conn) override {
    sessions_.release_owner(conn);
  }

 private:
  friend std::span<const OpSpec> op_table();

  std::string serve(Admitted& request) override;
  // The op table's handlers. build_nbhd stops at the next frame
  // boundary past the request's remaining deadline budget.
  Json op_run_decoder(const Admitted& request);
  Json op_check_coloring(const Admitted& request);
  Json op_search_witness(const Admitted& request);
  Json op_build_nbhd(const Admitted& request);
  Json op_info(const Admitted& request);
  Json op_health(const Admitted& request);
  Json op_session_open(const Admitted& request);
  Json op_session_step(const Admitted& request);
  Json op_session_close(const Admitted& request);

  const Lcp& find_lcp(const std::string& name) const;
  /// Resolves params["instance"]: a pool name or an inline object.
  /// *name_out gets the pool name or "inline" (for repro strings).
  Instance resolve_instance(const Json& spec, std::string* name_out) const;
  std::vector<Graph> resolve_graphs(const Json& specs) const;
  const ia::InteractiveProtocol& find_protocol(const std::string& name) const;
  /// Validated params["session"] (grammar + reserved namespace).
  static std::string session_param(const Json& params);

  ServiceConfig config_;
  std::vector<std::unique_ptr<Lcp>> lcps_;
  std::vector<NamedInstance> pool_;
  ArtifactCache cache_;
  std::vector<std::unique_ptr<ia::InteractiveProtocol>> protocols_;
  ia::SessionTable sessions_;
};

}  // namespace shlcp::svc
