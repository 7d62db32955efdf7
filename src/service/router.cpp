#include "service/router.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "service/cache.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/format.h"
#include "util/hash.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace shlcp::svc {

namespace {

/// The ring hash: util/hash.h's FNV-1a from the truncated basis (the
/// basis fnv1a_hex digests use; ring points are compared, never
/// printed), finished with mix64. Raw FNV of near-identical short
/// strings ("b0#17" vs "b1#17") leaves the low bits correlated, which
/// clusters a backend's vnodes into runs and can starve a backend of
/// keys entirely (observed: 3 one-letter backends, 64 vnodes each, one
/// backend owning 0/600 keys). The finalizer decorrelates placement;
/// balance then scales with vnodes as intended.
std::uint64_t ring_point(std::string_view bytes) {
  return mix64(fnv1a64(bytes, kFnvTruncatedBasis));
}

/// The ring key of a kSession op: its session id alone. The
/// "session\n" prefix keeps the namespace disjoint from artifact_key's
/// "<schema>\n<op>\n..." shape. nullopt for any other op, and for a
/// session op with a missing or non-string id: that falls through to
/// the artifact key, and the backend rejects it with invalid_params
/// either way.
std::optional<std::string> session_key(const OpSpec* op,
                                       const Json& params) {
  if (op == nullptr || op->route != OpRoute::kSession ||
      !params.is_object() || !params.contains("session") ||
      !params.at("session").is_string()) {
    return std::nullopt;
  }
  return format("session\n%s", params.at("session").as_string().c_str());
}

/// Cap kept small: each cached Client holds one live connection to the
/// backend; a burst past the cap just pays a reconnect.
constexpr std::size_t kMaxIdleClients = 8;

}  // namespace

bool BackendSpec::parse(const std::string& arg, BackendSpec* out) {
  std::string name;
  std::string target = arg;
  const std::size_t eq = arg.find('=');
  if (eq != std::string::npos) {
    name = arg.substr(0, eq);
    target = arg.substr(eq + 1);
    if (name.empty()) {
      return false;
    }
  }
  if (target.empty() || !Client::connector_for(target, ChaosPlan{})) {
    return false;
  }
  out->name = name.empty() ? target : name;
  out->target = target;
  return true;
}

HashRing::HashRing(const std::vector<std::string>& names, int vnodes)
    : num_backends_(static_cast<int>(names.size())) {
  SHLCP_CHECK_MSG(!names.empty(), "hash ring needs at least one backend");
  const int per = std::max(vnodes, 1);
  ring_.reserve(names.size() * static_cast<std::size_t>(per));
  for (std::size_t b = 0; b < names.size(); ++b) {
    for (int v = 0; v < per; ++v) {
      ring_.emplace_back(ring_point(format("%s#%d", names[b].c_str(), v)),
                         static_cast<int>(b));
    }
  }
  // Point ties (vanishingly rare) resolve by backend index, so the
  // ring order is deterministic for every (names, vnodes) input.
  std::sort(ring_.begin(), ring_.end());
}

std::uint64_t HashRing::point_of(std::string_view key) {
  return ring_point(key);
}

std::vector<int> HashRing::preference(std::uint64_t point) const {
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(num_backends_));
  std::vector<bool> seen(static_cast<std::size_t>(num_backends_), false);
  // Clockwise walk from the first vnode at or past `point`.
  const auto start = std::lower_bound(
      ring_.begin(), ring_.end(),
      std::make_pair(point, std::numeric_limits<int>::min()));
  const std::size_t begin =
      static_cast<std::size_t>(start - ring_.begin()) % ring_.size();
  for (std::size_t step = 0;
       step < ring_.size() &&
       order.size() < static_cast<std::size_t>(num_backends_);
       ++step) {
    const int b = ring_[(begin + step) % ring_.size()].second;
    if (!seen[static_cast<std::size_t>(b)]) {
      seen[static_cast<std::size_t>(b)] = true;
      order.push_back(b);
    }
  }
  for (int b = 0; b < num_backends_; ++b) {
    if (!seen[static_cast<std::size_t>(b)]) {
      order.push_back(b);
    }
  }
  return order;
}

/// One backend: its spec, liveness, counters, and a pool of resilient
/// Clients (each Client is single-threaded; concurrent router requests
/// to the same backend each borrow their own).
struct Router::Backend {
  BackendSpec spec;
  std::atomic<bool> alive{true};
  std::atomic<bool> quarantined{false};
  std::atomic<std::uint64_t> down_since_ms{0};
  std::atomic<std::uint64_t> forwarded{0};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> rerouted{0};
  std::atomic<std::uint64_t> conn_refused{0};
  std::atomic<std::uint64_t> timeouts{0};
  // Supervisor-pushed (set_backend_runtime); surfaced in fleet health.
  std::atomic<std::uint64_t> restarts{0};
  std::atomic<std::int64_t> last_exit{-1};
  std::atomic<std::int64_t> pid{-1};
  std::mutex mu;
  std::vector<std::unique_ptr<Client>> idle;

  std::unique_ptr<Client> borrow(const ClientOptions& options) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      if (!idle.empty()) {
        std::unique_ptr<Client> c = std::move(idle.back());
        idle.pop_back();
        return c;
      }
    }
    return std::make_unique<Client>(
        Client::connector_for(spec.target, options.chaos), options);
  }

  void give_back(std::unique_ptr<Client> c) {
    const std::lock_guard<std::mutex> lock(mu);
    if (idle.size() < kMaxIdleClients) {
      idle.push_back(std::move(c));
    }
  }
};

Router::Router(RouterOptions options)
    : Dispatcher("router"),
      options_(std::move(options)),
      ring_(
          [&] {
            std::vector<std::string> names;
            names.reserve(options_.backends.size());
            for (const BackendSpec& b : options_.backends) {
              names.push_back(b.name);
            }
            return names;
          }(),
          options_.vnodes) {
  backends_.reserve(options_.backends.size());
  for (const BackendSpec& spec : options_.backends) {
    auto backend = std::make_unique<Backend>();
    backend->spec = spec;
    backends_.push_back(std::move(backend));
  }
}

Router::~Router() = default;

std::string Router::serve(Admitted& request) {
  switch (request.op.route) {
    case OpRoute::kFanOutInfo:
      return aggregate_info(request.req);
    case OpRoute::kFanOutHealth:
      return aggregate_health(request.req);
    case OpRoute::kArtifact:
    case OpRoute::kSession:
      break;
  }
  std::optional<std::string> key =
      session_key(&request.op, request.req.params);
  return route(request.req, key ? *key : request.key());
}

void Router::mark_down(Backend& b, const CallResult& r) {
  b.alive.store(false, std::memory_order_relaxed);
  b.down_since_ms.store(mono_ms(), std::memory_order_relaxed);
  // Connection-refused = nothing listening (the process is gone);
  // timeout = listening but not answering (slow or wedged). Both
  // reroute, but the supervisor's wedge detection and fleet health
  // need them counted apart.
  if (r.fail_kind == CallResult::FailKind::kConnRefused) {
    b.conn_refused.fetch_add(1, std::memory_order_relaxed);
  } else if (r.fail_kind == CallResult::FailKind::kTimeout) {
    b.timeouts.fetch_add(1, std::memory_order_relaxed);
  }
}

Router::Backend* Router::find_backend(const std::string& name) {
  for (const auto& backend : backends_) {
    if (backend->spec.name == name) {
      return backend.get();
    }
  }
  return nullptr;
}

bool Router::set_backend_runtime(const std::string& name,
                                 const BackendRuntime& runtime) {
  Backend* b = find_backend(name);
  if (b == nullptr) {
    return false;
  }
  b->quarantined.store(runtime.quarantined, std::memory_order_relaxed);
  b->restarts.store(runtime.restarts, std::memory_order_relaxed);
  b->last_exit.store(runtime.last_exit, std::memory_order_relaxed);
  b->pid.store(runtime.pid, std::memory_order_relaxed);
  return true;
}

bool Router::set_backend_alive(const std::string& name, bool alive) {
  Backend* b = find_backend(name);
  if (b == nullptr) {
    return false;
  }
  b->alive.store(alive, std::memory_order_relaxed);
  if (!alive) {
    b->down_since_ms.store(mono_ms(), std::memory_order_relaxed);
  }
  return true;
}

std::optional<Json> Router::call_backend(Backend& b, const std::string& op,
                                         const Json& params,
                                         std::uint64_t deadline_ms) {
  std::unique_ptr<Client> client = b.borrow(options_.client);
  const CallResult r = client->call(op, params, deadline_ms);
  if (!r.ok) {
    mark_down(b, r);
    return std::nullopt;
  }
  b.alive.store(true, std::memory_order_relaxed);
  b.give_back(std::move(client));
  return r.response.at("result");
}

bool Router::forward(Backend& b, const Request& req, CallResult* out) {
  std::unique_ptr<Client> client = b.borrow(options_.client);
  *out = client->call(req.op, req.params, req.deadline_ms);
  if (out->ok) {
    b.alive.store(true, std::memory_order_relaxed);
    b.give_back(std::move(client));
    return true;
  }
  if (out->error_code == kErrInvalidParams ||
      out->error_code == kErrUnknownOp || out->error_code == kErrInternal ||
      out->error_code == kErrSessionNotFound ||
      out->error_code == kErrSessionState) {
    // The backend answered; the answer is "your request is wrong" (or
    // "I am broken in a way a sibling will be too"). Rerouting cannot
    // fix it -- return it verbatim. Session errors are authoritative
    // too: the ring sent us to the one backend that would hold this
    // session, so a sibling can only say "not found" less honestly.
    b.alive.store(true, std::memory_order_relaxed);
    b.give_back(std::move(client));
    return true;
  }
  // Transport death ("" code), draining, or still overloaded / past
  // deadline after the Client's own retry budget: mark the backend
  // down and move to the next replica. The pooled client is dropped --
  // its connection state is suspect.
  if (out->error_code.empty() || out->error_code == kErrDraining) {
    mark_down(b, *out);
  }
  return false;
}

std::string Router::route(const Request& req, const std::string& key) {
  const std::vector<int> pref = ring_.preference(HashRing::point_of(key));
  const int max_tries =
      std::max(1, std::min(options_.replica_attempts,
                           static_cast<int>(pref.size())));
  const std::uint64_t now = mono_ms();

  // Pass 1: backends believed alive (plus any due a reprobe). Pass 2
  // (only if pass 1 found none to try): everyone, in ring order --
  // better to probe a "dead" backend than to refuse outright. A
  // quarantined backend is in neither pass: its breaker is open, and
  // no request may block on it (the supervisor owns reprobing it).
  std::vector<int> plan;
  plan.reserve(pref.size());
  for (const int idx : pref) {
    Backend& b = *backends_[static_cast<std::size_t>(idx)];
    if (b.quarantined.load(std::memory_order_relaxed)) {
      continue;
    }
    const bool due_reprobe =
        now - b.down_since_ms.load(std::memory_order_relaxed) >=
        options_.probe_interval_ms;
    if (b.alive.load(std::memory_order_relaxed) || due_reprobe) {
      plan.push_back(idx);
    }
  }
  if (plan.empty()) {
    for (const int idx : pref) {
      if (!backends_[static_cast<std::size_t>(idx)]->quarantined.load(
              std::memory_order_relaxed)) {
        plan.push_back(idx);
      }
    }
  }

  int tried = 0;
  CallResult last;
  for (const int idx : plan) {
    if (tried >= max_tries) {
      break;
    }
    ++tried;
    Backend& b = *backends_[static_cast<std::size_t>(idx)];
    b.forwarded.fetch_add(1, std::memory_order_relaxed);
    if (forward(b, req, &last)) {
      b.answered.fetch_add(1, std::memory_order_relaxed);
      Json response = last.response;
      response["id"] = req.id;  // restore the caller's id; result bytes
                                // and digest pass through untouched
      return response.dump();
    }
    b.rerouted.fetch_add(1, std::memory_order_relaxed);
    metrics::counter("router.reroutes").inc();
  }

  const std::string detail =
      last.error_code.empty()
          ? std::string("unreachable")
          : format("last error '%s': %s", last.error_code.c_str(),
                   last.error_detail.c_str());
  return refuse(req.id, kErrOverloaded,
                format("no backend answered after %d replica attempt(s); %s",
                       tried, detail.c_str()),
                "", 50);
}

std::string Router::aggregate_info(const Request& req) {
  std::vector<Json> results;
  for (const auto& backend : backends_) {
    if (backend->quarantined.load(std::memory_order_relaxed)) {
      continue;  // breaker open: never block an aggregation on it
    }
    if (std::optional<Json> r =
            call_backend(*backend, req.op, req.params, req.deadline_ms)) {
      results.push_back(std::move(*r));
    }
  }
  if (results.empty()) {
    return refuse(req.id, kErrOverloaded, "no backend reachable for info", "",
                  50);
  }

  // Fleet view: registry members from the first healthy backend (they
  // are identical across the fleet), cache counters summed, hit_rate
  // recomputed from the sums.
  const Json& first = results.front();
  Json result = Json::object();
  result["schema"] = first.at("schema");
  result["ops"] = first.at("ops");
  result["lcps"] = first.at("lcps");
  result["instances"] = first.at("instances");
  result["draining"] = draining();
  Json& cache = (result["cache"] = Json::object());
  static constexpr const char* kSummed[] = {
      "hits",  "disk_hits", "misses", "evictions",
      "store_failures", "bytes", "entries"};
  std::uint64_t hits = 0;
  std::uint64_t disk_hits = 0;
  std::uint64_t misses = 0;
  for (const char* field : kSummed) {
    std::uint64_t total = 0;
    for (const Json& r : results) {
      total += r.at("cache").at(field).as_uint();
    }
    cache[field] = total;
    if (std::string_view(field) == "hits") hits = total;
    if (std::string_view(field) == "disk_hits") disk_hits = total;
    if (std::string_view(field) == "misses") misses = total;
  }
  const std::uint64_t lookups = hits + disk_hits + misses;
  cache["hit_rate"] = lookups == 0 ? 0.0
                                   : static_cast<double>(hits + disk_hits) /
                                         static_cast<double>(lookups);

  Json& router = (result["router"] = Json::object());
  router["backends"] = static_cast<std::uint64_t>(backends_.size());
  router["reachable"] = static_cast<std::uint64_t>(results.size());
  return ok_response(req.id, std::move(result), /*cached=*/false, "")
      .dump();
}

std::string Router::aggregate_health(const Request& req) {
  Json result = Json::object();
  result["schema"] = kWireSchema;
  result["draining"] = draining();
  result["queue"] = queue_health();

  Json& fleet = (result["backends"] = Json::array());
  for (const auto& backend : backends_) {
    Backend& b = *backend;
    Json entry = Json::object();
    entry["name"] = b.spec.name;
    entry["target"] = b.spec.target;
    // Breaker open: report without probing -- the health op must never
    // block on a quarantined backend either.
    std::optional<Json> health;
    if (!b.quarantined.load(std::memory_order_relaxed)) {
      health = call_backend(b, req.op, req.params, req.deadline_ms);
    }
    entry["alive"] = health.has_value();
    if (health) {
      entry["health"] = std::move(*health);
    }
    entry["quarantined"] = b.quarantined.load(std::memory_order_relaxed);
    entry["forwarded"] = b.forwarded.load(std::memory_order_relaxed);
    entry["answered"] = b.answered.load(std::memory_order_relaxed);
    entry["rerouted"] = b.rerouted.load(std::memory_order_relaxed);
    entry["conn_refused"] = b.conn_refused.load(std::memory_order_relaxed);
    entry["timeouts"] = b.timeouts.load(std::memory_order_relaxed);
    entry["restarts"] = b.restarts.load(std::memory_order_relaxed);
    entry["last_exit"] = b.last_exit.load(std::memory_order_relaxed);
    entry["pid"] = b.pid.load(std::memory_order_relaxed);
    fleet.push_back(std::move(entry));
  }
  return ok_response(req.id, std::move(result), /*cached=*/false, "")
      .dump();
}

int Router::probe_all() {
  int alive = 0;
  for (const auto& backend : backends_) {
    if (backend->quarantined.load(std::memory_order_relaxed)) {
      continue;  // the supervisor owns reprobing a quarantined backend
    }
    if (call_backend(*backend, "health", Json::object())) {
      ++alive;
    }
  }
  return alive;
}

std::vector<RouterBackendStats> Router::backend_stats() const {
  std::vector<RouterBackendStats> out;
  out.reserve(backends_.size());
  for (const auto& backend : backends_) {
    RouterBackendStats s;
    s.name = backend->spec.name;
    s.target = backend->spec.target;
    s.alive = backend->alive.load(std::memory_order_relaxed);
    s.quarantined = backend->quarantined.load(std::memory_order_relaxed);
    s.forwarded = backend->forwarded.load(std::memory_order_relaxed);
    s.answered = backend->answered.load(std::memory_order_relaxed);
    s.rerouted = backend->rerouted.load(std::memory_order_relaxed);
    s.conn_refused = backend->conn_refused.load(std::memory_order_relaxed);
    s.timeouts = backend->timeouts.load(std::memory_order_relaxed);
    s.restarts = backend->restarts.load(std::memory_order_relaxed);
    s.last_exit = backend->last_exit.load(std::memory_order_relaxed);
    s.pid = backend->pid.load(std::memory_order_relaxed);
    out.push_back(std::move(s));
  }
  return out;
}

std::string Router::routing_key(const std::string& op, const Json& params) {
  std::optional<std::string> key = session_key(find_op(op), params);
  return key ? std::move(*key) : artifact_key(op, params);
}

std::vector<int> Router::preference_for(const std::string& op,
                                        const Json& params) const {
  return ring_.preference(HashRing::point_of(routing_key(op, params)));
}

}  // namespace shlcp::svc
