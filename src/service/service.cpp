#include "service/service.h"

#include <exception>
#include <utility>

#include "certify/degree_one.h"
#include "certify/even_cycle.h"
#include "certify/revealing.h"
#include "certify/shatter.h"
#include "certify/spanning_bfs.h"
#include "certify/watermelon.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "interactive/commit.h"
#include "interactive/protocol.h"
#include "nbhd/aviews.h"
#include "nbhd/checkpoint.h"
#include "nbhd/witness.h"
#include "sim/engine.h"
#include "util/check.h"
#include "util/format.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace shlcp::svc {

namespace {

/// Dispatch-level error carrying a wire code (and, for concrete
/// distributed runs, the lcp/audit repro string).
struct ServiceError {
  std::string code;
  std::string message;
  std::string repro;
  // >= 0 adds the backpressure hint to the wire error (cap refusals).
  std::int64_t retry_after_ms = -1;
};

[[noreturn]] void throw_params(std::string message) {
  throw ServiceError{kErrInvalidParams, std::move(message), ""};
}

/// Pulls a member with a type check, or a default when absent.
bool member_bool(const Json& params, std::string_view key, bool def) {
  if (!params.contains(key)) {
    return def;
  }
  const Json& v = params.at(key);
  if (!v.is_bool()) {
    throw_params(format("'%s' must be a boolean", std::string(key).c_str()));
  }
  return v.as_bool();
}

std::int64_t member_int(const Json& params, std::string_view key,
                        std::int64_t def) {
  if (!params.contains(key)) {
    return def;
  }
  const Json& v = params.at(key);
  if (!v.is_integer()) {
    throw_params(format("'%s' must be an integer", std::string(key).c_str()));
  }
  return v.as_int();
}

std::string member_string(const Json& params, std::string_view key,
                          std::string def) {
  if (!params.contains(key)) {
    return def;
  }
  const Json& v = params.at(key);
  if (!v.is_string()) {
    throw_params(format("'%s' must be a string", std::string(key).c_str()));
  }
  return v.as_string();
}

Json bool_vector_to_json(const std::vector<bool>& bits) {
  Json arr = Json::array();
  for (const bool b : bits) {
    arr.push_back(b);
  }
  return arr;
}

Json int_vector_to_json(const std::vector<int>& xs) {
  Json arr = Json::array();
  for (const int x : xs) {
    arr.push_back(x);
  }
  return arr;
}

Json session_counters_json(const ia::SessionCounters& c) {
  Json j = Json::object();
  j["live"] = c.live;
  j["opened"] = c.opened;
  j["refused"] = c.refused;
  j["completed"] = c.completed;
  j["expired"] = c.expired;
  j["aborted"] = c.aborted;
  j["steps"] = c.steps;
  return j;
}

/// service.<op>.requests and service.<op>.latency_ns of one op.
struct OpMetrics {
  metrics::Counter* requests;
  metrics::Histogram* latency;
};

/// The per-op metric handles, registered once per op-table row.
const OpMetrics& op_metrics(const OpSpec& op) {
  static const std::vector<OpMetrics> bound = [] {
    std::vector<OpMetrics> all;
    for (const OpSpec& spec : op_table()) {
      const std::string name(spec.name);
      all.push_back(
          {&metrics::counter(format("service.%s.requests", name.c_str())),
           &metrics::histogram(
               format("service.%s.latency_ns", name.c_str()))});
    }
    return all;
  }();
  return bound[static_cast<std::size_t>(&op - op_table().data())];
}

/// Counters of the session and deadline paths, registered once like the
/// per-op handles: a by-name lookup takes the registry's global mutex.
metrics::Counter& sessions_opened_counter() {
  static metrics::Counter& c = metrics::counter("service.sessions.opened");
  return c;
}
metrics::Counter& sessions_refused_counter() {
  static metrics::Counter& c = metrics::counter("service.sessions.refused");
  return c;
}
metrics::Counter& deadline_cancel_counter() {
  static metrics::Counter& c = metrics::counter("service.deadline_cancels");
  return c;
}

}  // namespace

std::span<const OpSpec> op_table() {
  static constexpr OpSpec kOps[] = {
      {"run_decoder", true, OpRoute::kArtifact, &Service::op_run_decoder},
      {"check_coloring", true, OpRoute::kArtifact,
       &Service::op_check_coloring},
      {"search_witness", true, OpRoute::kArtifact,
       &Service::op_search_witness},
      {"build_nbhd", true, OpRoute::kArtifact, &Service::op_build_nbhd},
      {"info", false, OpRoute::kFanOutInfo, &Service::op_info},
      {"health", false, OpRoute::kFanOutHealth, &Service::op_health},
      {"session_open", false, OpRoute::kSession, &Service::op_session_open},
      {"session_step", false, OpRoute::kSession, &Service::op_session_step},
      {"session_close", false, OpRoute::kSession,
       &Service::op_session_close},
  };
  return kOps;
}

const OpSpec* find_op(std::string_view name) {
  for (const OpSpec& op : op_table()) {
    if (op.name == name) {
      return &op;
    }
  }
  return nullptr;
}

Dispatcher::Dispatcher(std::string name)
    : name_(std::move(name)),
      requests_(metrics::counter(name_ + ".requests")),
      errors_(metrics::counter(name_ + ".errors")),
      integrity_rejects_(metrics::counter(name_ + ".integrity_rejects")) {}

std::string Dispatcher::refuse(const Json& id, std::string_view code,
                               std::string_view message,
                               std::string_view repro,
                               std::int64_t retry_after_ms) {
  errors_.inc();
  return error_response(id, code, message, repro, retry_after_ms).dump();
}

std::string Dispatcher::handle_text(const std::string& body,
                                    std::uint64_t elapsed_ms,
                                    std::int64_t conn) {
  Json request;
  try {
    request = Json::parse(body);
  } catch (const CheckError& e) {
    return refuse(Json(), kErrInvalidRequest, e.what());
  }
  return respond(request, elapsed_ms, conn);
}

Json Dispatcher::handle(const Json& request, std::uint64_t elapsed_ms,
                        std::int64_t conn) {
  return Json::parse(respond(request, elapsed_ms, conn));
}

std::string Dispatcher::respond(const Json& request, std::uint64_t elapsed_ms,
                                std::int64_t conn) {
  requests_.inc();
  const Json id = request.is_object() && request.contains("id")
                      ? request.at("id")
                      : Json();
  if (draining()) {
    return refuse(id, kErrDraining,
                  format("%s is draining; resubmit elsewhere", name_.c_str()));
  }
  Request req;
  try {
    req = parse_request(request);
  } catch (const CheckError& e) {
    return refuse(id, kErrInvalidRequest, e.what());
  }
  if (req.deadline_ms > 0 && elapsed_ms > req.deadline_ms) {
    return refuse(
        id, kErrDeadline,
        format("request waited %llu ms past its %llu ms deadline",
               static_cast<unsigned long long>(elapsed_ms),
               static_cast<unsigned long long>(req.deadline_ms)));
  }

  // End-to-end integrity: the client's "check" digest commits to the
  // (op, params) it meant to send. Recompute from what actually arrived
  // and refuse a mismatch -- a request corrupted in flight must get a
  // retriable error, never an answer to the corrupted question.
  std::optional<std::string> key;
  if (!req.check.empty()) {
    key = artifact_key(req.op, req.params);
    const std::string digest = fnv1a_hex(*key);
    if (req.check != digest) {
      integrity_rejects_.inc();
      return refuse(
          req.id, kErrIntegrity,
          format("request digest %s does not match the received payload "
                 "(%s); the frame was corrupted in transit -- retry",
                 req.check.c_str(), digest.c_str()));
    }
  }

  const OpSpec* op = find_op(req.op);
  if (op == nullptr) {
    return refuse(req.id, kErrUnknownOp,
                  format("unknown op '%s'", req.op.c_str()));
  }
  // The pre-work check above guarantees elapsed_ms <= deadline_ms.
  if (req.deadline_ms > 0) {
    req.deadline_ms -= elapsed_ms;
  }
  Admitted admitted(*op, std::move(req), conn, std::move(key));
  return serve(admitted);
}

Json Dispatcher::queue_health() const {
  // In-process use (no transport loop) reports an empty queue.
  static const HealthState kNoQueue;
  const HealthState* health = health_.load(std::memory_order_acquire);
  if (health == nullptr) {
    health = &kNoQueue;
  }
  Json queue = Json::object();
  queue["depth"] = health->queue_depth.load(std::memory_order_relaxed);
  queue["max"] = health->queue_max.load(std::memory_order_relaxed);
  queue["admitted"] = health->admitted_total.load(std::memory_order_relaxed);
  queue["shed"] = health->shed_total.load(std::memory_order_relaxed);
  return queue;
}

Service::Service(ServiceConfig config)
    : Dispatcher("service"),
      config_(std::move(config)),
      pool_(audit_instance_pool()),
      cache_(config_.cache),
      protocols_(ia::standard_protocols()),
      sessions_(
          ia::SessionLimits{config_.sessions.ttl_ms,
                            config_.sessions.global_max,
                            config_.sessions.per_conn_max},
          config_.sessions.clock) {
  // Every named scheme a request can refer to, repaired and literal
  // variants alike (the literal ones exist exactly so their failures
  // can be replayed on demand).
  lcps_.push_back(std::make_unique<RevealingLcp>(2));
  lcps_.push_back(std::make_unique<SpanningBfsLcp>());
  lcps_.push_back(std::make_unique<DegreeOneLcp>());
  lcps_.push_back(std::make_unique<DegreeOneLcp>(DegreeOneVariant::kNoCommonBeta));
  lcps_.push_back(std::make_unique<EvenCycleLcp>());
  lcps_.push_back(std::make_unique<ShatterLcp>());
  lcps_.push_back(std::make_unique<ShatterLcp>(ShatterVariant::kLiteral));
  lcps_.push_back(std::make_unique<WatermelonLcp>());
  lcps_.push_back(
      std::make_unique<WatermelonLcp>(WatermelonVariant::kNoPortCheck));
}

Service::~Service() = default;

std::string Service::serve(Admitted& request) {
  const OpMetrics& m = op_metrics(request.op);
  m.requests->inc();
  const metrics::ScopedTimerNs timer(*m.latency);
  trace::Span span("service.request");

  // Cache probe: cacheable ops splice the stored result bytes into the
  // response verbatim. The session ops are stateful (each call advances
  // a live session), so they are never cached.
  if (request.op.cacheable) {
    if (std::optional<std::string> cached = cache_.get(request.key())) {
      return ok_response_text(request.req.id, *cached, /*cached=*/true,
                              fnv1a_hex(*cached));
    }
  }

  try {
    const std::string dumped = (this->*request.op.run)(request).dump();
    if (request.op.cacheable) {
      cache_.insert(request.key(), dumped);
    }
    return ok_response_text(request.req.id, dumped, /*cached=*/false,
                            fnv1a_hex(dumped));
  } catch (const ServiceError& e) {
    return refuse(request.req.id, e.code, e.message, e.repro,
                  e.retry_after_ms);
  } catch (const CheckError& e) {
    return refuse(request.req.id, kErrInvalidParams, e.what());
  } catch (const std::exception& e) {
    return refuse(request.req.id, kErrInternal, e.what());
  }
}

const Lcp& Service::find_lcp(const std::string& name) const {
  for (const auto& lcp : lcps_) {
    if (lcp->name() == name) {
      return *lcp;
    }
  }
  std::string known;
  for (const auto& lcp : lcps_) {
    if (!known.empty()) {
      known += ", ";
    }
    known += lcp->name();
  }
  throw ServiceError{
      kErrInvalidParams,
      format("unknown lcp '%s' (known: %s)", name.c_str(), known.c_str()), ""};
}

Instance Service::resolve_instance(const Json& spec,
                                   std::string* name_out) const {
  if (spec.is_string()) {
    for (const NamedInstance& named : pool_) {
      if (named.name == spec.as_string()) {
        *name_out = named.name;
        return named.inst;
      }
    }
    throw_params(format("unknown pool instance '%s'",
                        spec.as_string().c_str()));
  }
  if (!spec.is_object()) {
    throw_params("'instance' must be a pool name or an inline object");
  }
  *name_out = "inline";
  return instance_from_json(spec);
}

Json Service::op_run_decoder(const Admitted& request) {
  const Json& params = request.req.params;
  const std::string lcp_name = member_string(params, "lcp", "");
  if (lcp_name.empty()) {
    throw_params("run_decoder: missing 'lcp'");
  }
  const Lcp& lcp = find_lcp(lcp_name);
  if (!params.contains("instance")) {
    throw_params("run_decoder: missing 'instance'");
  }
  std::string instance_name;
  Instance inst = resolve_instance(params.at("instance"), &instance_name);

  std::string labels_desc = "as-given";
  if (params.contains("labels")) {
    const Json& labels = params.at("labels");
    if (labels.is_string() && labels.as_string() == "honest") {
      std::optional<Labeling> honest = lcp.prove(inst.g, inst.ports, inst.ids);
      if (!honest) {
        throw ServiceError{
            kErrInvalidParams,
            format("run_decoder: prover of '%s' declines instance '%s'",
                   lcp_name.c_str(), instance_name.c_str()),
            ""};
      }
      inst.labels = std::move(*honest);
      labels_desc = "honest";
    } else if (labels.is_array()) {
      inst.labels = labeling_from_json(labels, inst.num_nodes());
    } else {
      throw_params("run_decoder: 'labels' must be \"honest\" or an array");
    }
  }

  FaultPlan plan;  // default: fault-free
  if (params.contains("plan")) {
    const Json& p = params.at("plan");
    if (!p.is_string()) {
      throw_params("run_decoder: 'plan' must be a FaultPlan descriptor");
    }
    plan = FaultPlan::parse(p.as_string());
  }
  const std::string repro =
      make_repro(lcp.name(), instance_name, labels_desc, plan);

  FaultyRunResult run;
  try {
    run = run_decoder_distributed_faulty(lcp.decoder(), inst, plan);
  } catch (const CheckError& e) {
    throw ServiceError{kErrInternal, e.what(), repro};
  }

  Json result = Json::object();
  result["lcp"] = lcp.name();
  result["instance"] = instance_name;
  result["verdicts"] = bool_vector_to_json(run.verdicts);
  result["degraded"] = bool_vector_to_json(run.degraded);
  bool all = true;
  for (const bool v : run.verdicts) {
    all = all && v;
  }
  result["accepts_all"] = all;
  Json& stats = (result["stats"] = Json::object());
  stats["rounds"] = run.stats.rounds;
  stats["messages"] = run.stats.messages;
  stats["bytes"] = run.stats.bytes;
  Json& faults = (result["faults"] = Json::object());
  faults["dropped"] = run.faults.dropped;
  faults["duplicated"] = run.faults.duplicated;
  faults["corrupted_fields"] = run.faults.corrupted_fields;
  faults["tampered_messages"] = run.faults.tampered_messages;
  result["repro"] = repro;
  return result;
}

Json Service::op_check_coloring(const Admitted& request) {
  const Json& params = request.req.params;
  Graph g;
  std::string instance_name = "inline";
  if (params.contains("instance")) {
    g = resolve_instance(params.at("instance"), &instance_name).g;
  } else if (params.contains("graph")) {
    g = graph_from_json(params.at("graph"));
  } else {
    throw_params("check_coloring: need 'instance' or 'graph'");
  }
  const int k = static_cast<int>(member_int(params, "k", 2));
  if (k < 1 || k > 64) {
    throw_params("check_coloring: k out of range [1, 64]");
  }

  Json result = Json::object();
  result["k"] = k;
  if (params.contains("colors")) {
    const Json& colors_json = params.at("colors");
    if (!colors_json.is_array() ||
        static_cast<int>(colors_json.size()) != g.num_nodes()) {
      throw_params("check_coloring: 'colors' must list every node");
    }
    std::vector<int> colors;
    colors.reserve(colors_json.size());
    for (const Json& c : colors_json.items()) {
      const std::int64_t color = c.as_int();
      if (color < 0 || color >= k) {
        throw_params(format("check_coloring: color %lld outside [0, %d)",
                            static_cast<long long>(color), k));
      }
      colors.push_back(static_cast<int>(color));
    }
    result["mode"] = "verify";
    Json violation;  // null unless an improper edge is found
    for (const Edge& e : g.edges()) {
      if (colors[static_cast<std::size_t>(e.u)] ==
          colors[static_cast<std::size_t>(e.v)]) {
        violation = Json::array();
        violation.push_back(e.u);
        violation.push_back(e.v);
        break;
      }
    }
    result["proper"] = violation.is_null();
    result["violation"] = std::move(violation);
  } else {
    result["mode"] = "solve";
    const std::optional<std::vector<int>> coloring = k_coloring(g, k);
    result["colorable"] = coloring.has_value();
    result["coloring"] = coloring ? int_vector_to_json(*coloring) : Json();
  }
  return result;
}

Json Service::op_search_witness(const Admitted& request) {
  const Json& params = request.req.params;
  const std::string family = member_string(params, "family", "");
  const int max_n = static_cast<int>(member_int(params, "max_n", 6));
  if (max_n < 2 || max_n > 8) {
    throw_params("search_witness: max_n out of range [2, 8]");
  }

  std::vector<Instance> instances;
  std::string default_decoder;
  if (family == "degree-one") {
    instances = degree_one_witnesses(max_n);
    default_decoder = "degree-one";
  } else if (family == "even-cycle") {
    instances = even_cycle_witnesses(max_n);
    default_decoder = "even-cycle";
  } else if (family == "shatter-point") {
    instances = shatter_witnesses(/*vector_on_point=*/true);
    default_decoder = "shatter-point";
  } else if (family == "shatter-point-literal") {
    instances = shatter_witnesses(/*vector_on_point=*/false);
    default_decoder = "shatter-point-literal";
  } else if (family == "watermelon") {
    instances = watermelon_witnesses();
    default_decoder = "watermelon";
  } else if (family == "no-port-check") {
    instances = no_port_check_witnesses();
    default_decoder = "watermelon-no-port-check";
  } else {
    throw_params(format(
        "search_witness: unknown family '%s' (known: degree-one, even-cycle, "
        "shatter-point, shatter-point-literal, watermelon, no-port-check)",
        family.c_str()));
  }
  const Lcp& lcp =
      find_lcp(member_string(params, "decoder", default_decoder));

  // Single-threaded build: the service's parallelism is across requests
  // (the server's poll loops, one thread each).
  ParallelEnumOptions options;
  options.num_threads = 1;
  const WitnessSearchResult search =
      search_hiding_witness(lcp.decoder(), instances, /*k=*/2, options);

  Json result = Json::object();
  result["family"] = family;
  result["decoder"] = lcp.decoder().name();
  result["num_instances"] = static_cast<std::int64_t>(instances.size());
  result["num_views"] = search.nbhd.num_views();
  result["num_edges"] = search.nbhd.num_edges();
  result["hiding"] = search.hiding();
  result["odd_cycle"] =
      search.odd_cycle ? int_vector_to_json(*search.odd_cycle) : Json();
  return result;
}

std::vector<Graph> Service::resolve_graphs(const Json& specs) const {
  if (!specs.is_array() || specs.size() == 0) {
    throw_params("build_nbhd: 'graphs' must be a non-empty array of specs");
  }
  std::vector<Graph> graphs;
  for (const Json& spec_json : specs.items()) {
    if (!spec_json.is_string()) {
      throw_params("build_nbhd: each graph spec must be a string");
    }
    const std::string& spec = spec_json.as_string();
    const std::size_t colon = spec.find(':');
    const std::string kind = spec.substr(0, colon);
    const std::string arg =
        colon == std::string::npos ? "" : spec.substr(colon + 1);
    const auto arg_int = [&](int lo, int hi) {
      int v = 0;
      for (const char c : arg) {
        if (c < '0' || c > '9') {
          throw_params(format("build_nbhd: bad graph spec '%s'", spec.c_str()));
        }
        v = v * 10 + (c - '0');
        if (v > hi) {
          break;
        }
      }
      if (arg.empty() || v < lo || v > hi) {
        throw_params(format("build_nbhd: '%s' needs an argument in [%d, %d]",
                            spec.c_str(), lo, hi));
      }
      return v;
    };
    if (kind == "path") {
      graphs.push_back(make_path(arg_int(1, 10)));
    } else if (kind == "cycle") {
      graphs.push_back(make_cycle(arg_int(3, 10)));
    } else if (kind == "star") {
      graphs.push_back(make_star(arg_int(1, 10)));
    } else if (kind == "complete") {
      graphs.push_back(make_complete(arg_int(1, 8)));
    } else if (kind == "grid") {
      const std::size_t x = arg.find('x');
      if (x == std::string::npos) {
        throw_params(format("build_nbhd: grid spec '%s' must be grid:RxC",
                            spec.c_str()));
      }
      int rows = 0;
      int cols = 0;
      try {
        rows = std::stoi(arg.substr(0, x));
        cols = std::stoi(arg.substr(x + 1));
      } catch (const std::exception&) {
        throw_params(format("build_nbhd: bad grid spec '%s'", spec.c_str()));
      }
      // Bound each dimension before multiplying: stoi accepts values
      // whose product overflows int (UB), e.g. grid:65536x65536.
      if (rows < 1 || cols < 1 || rows > 16 || cols > 16 ||
          rows * cols > 16) {
        throw_params("build_nbhd: grid bounded to 16 nodes");
      }
      graphs.push_back(make_grid(rows, cols));
    } else if (kind == "connected") {
      const int n = arg_int(1, 5);
      for_each_connected_graph(n, [&](const Graph& g) {
        graphs.push_back(g);
        return true;
      });
    } else if (kind == "pool") {
      bool found = false;
      for (const NamedInstance& named : pool_) {
        if (named.name == arg) {
          graphs.push_back(named.inst.g);
          found = true;
          break;
        }
      }
      if (!found) {
        throw_params(format("build_nbhd: unknown pool instance '%s'",
                            arg.c_str()));
      }
    } else {
      throw_params(format(
          "build_nbhd: unknown graph spec '%s' (known: path:N, cycle:N, "
          "star:N, complete:N, grid:RxC, connected:N, pool:<name>)",
          spec.c_str()));
    }
  }
  return graphs;
}

Json Service::op_build_nbhd(const Admitted& request) {
  const Json& params = request.req.params;
  const std::uint64_t remaining_ms = request.req.deadline_ms;
  const std::string lcp_name = member_string(params, "lcp", "");
  if (lcp_name.empty()) {
    throw_params("build_nbhd: missing 'lcp'");
  }
  const Lcp& lcp = find_lcp(lcp_name);
  if (!params.contains("graphs")) {
    throw_params("build_nbhd: missing 'graphs'");
  }
  const std::vector<Graph> graphs = resolve_graphs(params.at("graphs"));

  ParallelEnumOptions options;
  options.num_threads = 1;  // request-level parallelism only
  options.enums.all_ports = member_bool(params, "all_ports", false);
  options.enums.all_id_orders = member_bool(params, "all_id_orders", false);
  options.enums.max_labelings_per_frame = static_cast<std::uint64_t>(
      member_int(params, "max_labelings_per_frame", 2'000'000));
  // Cancel-at-boundary deadline enforcement: build_nbhd is the one op long
  // enough to expire mid-flight, so the sweep runs under a wall budget (0
  // when the request has no deadline: unlimited) and stops at the next
  // frame boundary once it passes. An expired build is refused -- a
  // truncated V(D, n) is never answered or cached (a completed build is
  // the same graph whatever its budget, so cacheability is unaffected).
  options.budget.wall_ms = remaining_ms;

  const std::string build = member_string(params, "build", "proved");
  if (build != "exhaustive" && build != "proved") {
    throw_params("build_nbhd: 'build' must be \"exhaustive\" or \"proved\"");
  }
  const ResumableBuildResult res =
      build == "exhaustive" ? build_exhaustive_resumable(lcp, graphs, options)
                            : build_proved_resumable(lcp, graphs, options);
  if (!res.complete) {
    deadline_cancel_counter().inc();
    throw ServiceError{
        kErrDeadline,
        format("build_nbhd expired its %llu ms deadline budget after "
               "%llu of %llu frames",
               static_cast<unsigned long long>(remaining_ms),
               static_cast<unsigned long long>(res.frames_done),
               static_cast<unsigned long long>(res.num_frames)),
        ""};
  }
  const NbhdGraph& nbhd = res.nbhd;

  Json result = Json::object();
  result["lcp"] = lcp.name();
  result["build"] = build;
  result["num_graphs"] = static_cast<std::int64_t>(graphs.size());
  result["num_views"] = nbhd.num_views();
  result["num_edges"] = nbhd.num_edges();
  result["instances_absorbed"] = nbhd.num_instances_absorbed();
  result["views_deduped"] = nbhd.stats().views_deduped;
  result["k_colorable"] = nbhd.k_colorable(lcp.k());
  const std::optional<std::vector<int>> cycle = nbhd.odd_cycle();
  result["odd_cycle_len"] =
      cycle ? Json(static_cast<std::int64_t>(cycle->size())) : Json();
  return result;
}

const ia::InteractiveProtocol& Service::find_protocol(
    const std::string& name) const {
  for (const auto& protocol : protocols_) {
    if (protocol->name() == name) {
      return *protocol;
    }
  }
  std::string known;
  for (const auto& protocol : protocols_) {
    if (!known.empty()) {
      known += ", ";
    }
    known += protocol->name();
  }
  throw ServiceError{
      kErrInvalidParams,
      format("unknown interactive protocol '%s' (known: %s)", name.c_str(),
             known.c_str()),
      ""};
}

std::string Service::session_param(const Json& params) {
  if (!params.contains("session") || !params.at("session").is_string()) {
    throw_params("session ops need a string 'session' id");
  }
  const std::string& id = params.at("session").as_string();
  const std::string why = session_id_error(id);
  if (!why.empty()) {
    throw_params(format("bad session id '%s': %s", id.c_str(), why.c_str()));
  }
  return id;
}

Json Service::op_session_open(const Admitted& request) {
  const Json& params = request.req.params;
  const std::string id = session_param(params);
  const std::string protocol_name =
      member_string(params, "protocol", "kcol-commit");
  const ia::InteractiveProtocol& protocol = find_protocol(protocol_name);
  if (!params.contains("instance")) {
    throw_params("session_open: missing 'instance'");
  }
  std::string instance_name;
  ia::OpenContext ctx;
  ctx.graph = resolve_instance(params.at("instance"), &instance_name).g;
  if (ctx.graph.num_edges() < 1) {
    throw_params(format("session_open: instance '%s' has no edge to "
                        "challenge",
                        instance_name.c_str()));
  }
  ctx.session_id = id;
  ctx.params = &params;
  // The challenge seed mixes the service's base, the client's optional
  // contribution, and the session id: deterministic given the request
  // (replayable), distinct across sessions by construction.
  const auto user_seed =
      static_cast<std::uint64_t>(member_int(params, "seed", 0));
  ctx.challenge_seed = Rng::stream(config_.sessions.seed ^ user_seed,
                                   ia::kDomChallenge, ia::fnv1a64(id))
                           .next_u64();

  const ia::SessionTable::Refusal refusal = sessions_.open(
      id, request.conn, [&] { return protocol.open(ctx); });
  switch (refusal) {
    case ia::SessionTable::Refusal::kNone:
      break;
    case ia::SessionTable::Refusal::kExists:
      throw ServiceError{
          kErrSessionState,
          format("session '%s' is already open", id.c_str()), ""};
    case ia::SessionTable::Refusal::kGlobalCap:
    case ia::SessionTable::Refusal::kOwnerCap: {
      // The shed path: same code and backpressure hint shape as queue
      // admission, so clients and routers treat both identically.
      sessions_refused_counter().inc();
      const auto hint =
          static_cast<std::int64_t>(config_.sessions.ttl_ms / 4 + 1);
      throw ServiceError{
          kErrOverloaded,
          refusal == ia::SessionTable::Refusal::kGlobalCap
              ? format("session table full (%zu live)",
                       static_cast<std::size_t>(config_.sessions.global_max))
              : format("connection session cap reached (%zu)",
                       static_cast<std::size_t>(config_.sessions.per_conn_max)),
          "", hint};
    }
  }
  sessions_opened_counter().inc();
  Json result = Json::object();
  result["session"] = id;
  result["instance"] = instance_name;
  result["describe"] = sessions_.describe(id);
  return result;
}

Json Service::op_session_step(const Admitted& request) {
  const Json& params = request.req.params;
  const std::string id = session_param(params);
  if (!params.contains("msg") || !params.at("msg").is_object()) {
    throw_params("session_step: missing object 'msg'");
  }
  ia::SessionTable::StepResult step = sessions_.step(id, params.at("msg"));
  if (!step.found) {
    throw ServiceError{
        kErrSessionNotFound,
        format("no live session '%s' (never opened, expired, or already "
               "done)",
               id.c_str()),
        ""};
  }
  if (step.state_error) {
    throw ServiceError{kErrSessionState, step.error, ""};
  }
  Json result = Json::object();
  result["session"] = id;
  result["reply"] = std::move(step.reply);
  result["completed"] = step.completed;
  return result;
}

Json Service::op_session_close(const Admitted& request) {
  const Json& params = request.req.params;
  const std::string id = session_param(params);
  ia::SessionTable::CloseResult closed = sessions_.close(id);
  if (!closed.found) {
    throw ServiceError{
        kErrSessionNotFound,
        format("no live session '%s' (never opened, expired, or already "
               "done)",
               id.c_str()),
        ""};
  }
  Json result = Json::object();
  result["session"] = id;
  result["closed"] = true;
  result["final"] = std::move(closed.final_state);
  return result;
}

Json Service::op_info(const Admitted& /*request*/) {
  Json result = Json::object();
  result["schema"] = kWireSchema;
  Json& ops_json = (result["ops"] = Json::array());
  for (const OpSpec& op : op_table()) {
    ops_json.push_back(std::string(op.name));
  }
  Json& lcps_json = (result["lcps"] = Json::array());
  for (const auto& lcp : lcps_) {
    lcps_json.push_back(lcp->name());
  }
  Json& pool_json = (result["instances"] = Json::array());
  for (const NamedInstance& named : pool_) {
    pool_json.push_back(named.name);
  }
  result["draining"] = draining();
  Json& interactive = (result["interactive"] = Json::object());
  interactive["schema"] = ia::kInteractiveSchema;
  Json& protocols = (interactive["protocols"] = Json::array());
  for (const auto& protocol : protocols_) {
    protocols.push_back(protocol->name());
  }
  interactive["sessions"] = session_counters_json(session_counters());
  Json& limits = (interactive["limits"] = Json::object());
  limits["ttl_ms"] = sessions_.limits().ttl_ms;
  limits["global_max"] =
      static_cast<std::int64_t>(sessions_.limits().global_max);
  limits["per_conn_max"] =
      static_cast<std::int64_t>(sessions_.limits().per_owner_max);
  const CacheStats stats = cache_.stats();
  Json& cache_json = (result["cache"] = Json::object());
  cache_json["hits"] = stats.hits;
  cache_json["disk_hits"] = stats.disk_hits;
  cache_json["misses"] = stats.misses;
  cache_json["evictions"] = stats.evictions;
  cache_json["store_failures"] = stats.store_failures;
  cache_json["bytes"] = stats.bytes;
  cache_json["entries"] = stats.entries;
  cache_json["hit_rate"] = stats.hit_rate();
  return result;
}

Json Service::op_health(const Admitted& /*request*/) {
  Json result = Json::object();
  result["schema"] = kWireSchema;
  result["draining"] = draining();
  result["queue"] = queue_health();
  // Session occupancy rides health so a router steering by load sees
  // cap pressure (live vs global_max) next to queue depth.
  Json& sessions_json = (result["sessions"] =
                             session_counters_json(session_counters()));
  sessions_json["global_max"] =
      static_cast<std::int64_t>(sessions_.limits().global_max);
  const CacheStats stats = cache_.stats();
  Json& cache_json = (result["cache"] = Json::object());
  cache_json["hits"] = stats.hits;
  cache_json["disk_hits"] = stats.disk_hits;
  cache_json["misses"] = stats.misses;
  cache_json["entries"] = stats.entries;
  cache_json["store_failures"] = stats.store_failures;
  cache_json["bytes"] = stats.bytes;
  cache_json["hit_rate"] = stats.hit_rate();
  return result;
}

}  // namespace shlcp::svc
