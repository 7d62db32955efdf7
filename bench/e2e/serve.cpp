// The serving workloads: serve_warm, serve_cold, sessions.
//
// One run is: the inputs (for serve_cold the whole timed request stream,
// drawn and serialized up front), setup (spawn -> ready -> primed, done
// kSetups times; the median is setup_s), a closed-loop phase
// (throughput, CPU per op), an open-loop phase at the workload's frozen
// rate (latency from each op's due time), then the output checks after
// the timed window. A traced run splits the closed phase into an
// untraced and a traced half to price the tracing, samples `health` at
// 1 Hz while traced, and replays the same kind of request bodies
// in-process stage by stage for the per-layer metrics; a traced
// serve_warm also puts the same keys through shlcp_router and a fleet of
// two backends to measure the forward hop.

#include <sys/prctl.h>
#include <signal.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <unordered_set>

#include "bench.h"
#include "certify/degree_one.h"
#include "certify/even_cycle.h"
#include "certify/spanning_bfs.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "interactive/commit.h"
#include "interactive/protocol.h"
#include "interactive/table.h"
#include "lcp/audit.h"
#include "nbhd/aviews.h"
#include "nbhd/checkpoint.h"
#include "service/cache.h"
#include "service/client.h"
#include "service/proto.h"
#include "service/router.h"
#include "service/service.h"
#include "sim/engine.h"
#include "sim/faults.h"
#include "util/format.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace shlcp::e2e {
namespace {

using svc::CallResult;

enum class Kind { kWarm, kCold, kSessions };

struct Spec {
  std::string name;
  Kind kind;
  bool routed;  // shlcp_router + two backends instead of one shlcpd
  /// Open-loop offered rate (ops/s): 15-25% of the closed-loop capacity
  /// measured on the reference box in a quiet period (README.md), then
  /// frozen so every later run offers the same load. The host's slow
  /// stretches halve that capacity; the rate stays low enough that they
  /// do not turn into queueing.
  double open_rate;
};

const Spec& spec_for(const std::string& name) {
  static const std::vector<Spec> specs = {
      {"serve_warm", Kind::kWarm, false, 7000},
      {"serve_cold", Kind::kCold, false, 2000},
      {"sessions", Kind::kSessions, false, 500},
  };
  for (const Spec& s : specs) {
    if (s.name == name) {
      return s;
    }
  }
  throw std::runtime_error("not a serving workload: " + name);
}

constexpr int kSetups = 9;
constexpr double kWindowSeconds = 0.5;
constexpr std::size_t kWarmKeys = 256;
constexpr std::size_t kColdPrime = 64;
constexpr std::size_t kSessionPrime = 16;
constexpr std::size_t kColdCacheBytes = 8u << 20;
/// serve_cold's prepared stream holds this many requests per closed-loop
/// second, over twice the closed-loop throughput of the reference box.
/// A run that uses them all fails; the constant must then grow.
constexpr double kColdPoolRate = 30'000;
constexpr std::size_t kSamplePerThread = 1200;  // >= 2000 checked in total
constexpr std::size_t kSessionSamplePerThread = 64;
constexpr int kSessionK = 3;
constexpr int kSessionRounds = 4;

// ---------------------------------------------------------------------
// Request streams.

struct Req {
  std::string op;
  Json params;
};
using ReqPtr = std::shared_ptr<const Req>;

Json inline_instance(const Graph& g) {
  Json inst = Json::object();
  inst["graph"] = svc::graph_to_json(g);
  return inst;
}

/// One request of the cold mix; `kind` cycles through the four quarters.
Req draw_request(std::uint64_t kind, Rng& rng) {
  Req r;
  r.params = Json::object();
  switch (kind % 4) {
    case 0:
      r.op = "check_coloring";
      r.params["graph"] = svc::graph_to_json(
          make_random_graph(rng.next_int(10, 16), 1, 4, rng));
      r.params["k"] = kSessionK;
      break;
    case 1:
      r.op = "run_decoder";
      r.params["lcp"] = "degree-one";
      r.params["instance"] =
          inline_instance(make_random_tree(rng.next_int(8, 14), rng));
      r.params["labels"] = "honest";
      break;
    case 2: {
      r.op = "run_decoder";
      r.params["lcp"] = "spanning-bfs";
      const int n = rng.next_int(8, 14);
      r.params["instance"] =
          inline_instance(make_random_bipartite(n, rng.next_int(0, 4), rng));
      r.params["labels"] = "honest";
      break;
    }
    default: {
      static const char* kLcps[] = {"degree-one", "spanning-bfs", "even-cycle"};
      r.op = "build_nbhd";
      r.params["lcp"] = kLcps[rng.next_below(3)];
      Json& graphs = (r.params["graphs"] = Json::array());
      const int count = rng.next_int(1, 4);
      for (int i = 0; i < count; ++i) {
        switch (rng.next_below(3)) {
          case 0:
            graphs.push_back(format("path:%d", rng.next_int(2, 8)));
            break;
          case 1:
            graphs.push_back(format("star:%d", rng.next_int(1, 6)));
            break;
          default:
            graphs.push_back(format("cycle:%d", rng.next_int(3, 8)));
            break;
        }
      }
      r.params["build"] = "proved";
      break;
    }
  }
  return r;
}

/// The seeded cold stream: the i-th call draws request i, re-drawing an
/// exact duplicate, so the sequence is fixed by the seed and no two
/// requests share a key. draw_request builds each op's params in one
/// fixed member order, so equal dumps are equal keys. Used only before
/// the timed phases, from one thread.
class RequestStream {
 public:
  explicit RequestStream(std::uint64_t seed) : rng_(mix64(seed ^ 0xC01DULL)) {}

  /// The next request; `dump`, when given, receives its params' compact
  /// dump.
  Req next(std::string* dump = nullptr) {
    const std::uint64_t kind = count_++;
    for (;;) {
      Req r = draw_request(kind, rng_);
      std::string text = r.params.dump();
      if (seen_.insert(ia::fnv1a64(r.op + '\n' + text)).second) {
        if (dump != nullptr) {
          *dump = std::move(text);
        }
        return r;
      }
    }
  }

  ReqPtr next_ptr() { return std::make_shared<const Req>(next()); }

 private:
  Rng rng_;
  std::uint64_t count_ = 0;
  std::unordered_set<std::uint64_t> seen_;
};

/// search_witness variants cheap enough to prime (a few ms at most).
std::vector<ReqPtr> witness_keys() {
  static const std::pair<const char*, int> kVariants[] = {
      {"degree-one", 2},    {"degree-one", 3},    {"degree-one", 4},
      {"even-cycle", 4},    {"even-cycle", 5},    {"even-cycle", 6},
      {"even-cycle", 7},    {"even-cycle", 8},    {"watermelon", 6},
      {"watermelon", 7},    {"shatter-point", 6}, {"shatter-point", 7},
      {"shatter-point-literal", 6}, {"shatter-point-literal", 7},
      {"no-port-check", 6}, {"no-port-check", 7},
  };
  std::vector<ReqPtr> keys;
  for (const auto& [family, max_n] : kVariants) {
    Req r;
    r.op = "search_witness";
    r.params = Json::object();
    r.params["family"] = family;
    r.params["max_n"] = max_n;
    keys.push_back(std::make_shared<const Req>(std::move(r)));
  }
  return keys;
}

// ---------------------------------------------------------------------
// Sessions.

struct SessionPlan {
  std::string id;
  int n = 0;  // cycle length
  std::uint64_t seed = 0;
};

SessionPlan session_plan(std::uint64_t run_seed, const std::string& prefix,
                         std::uint64_t index) {
  Rng rng(mix64(run_seed ^ mix64(index + 0x5E55ULL)));
  SessionPlan plan;
  plan.id = format("%s%llu", prefix.c_str(),
                   static_cast<unsigned long long>(index));
  plan.n = rng.next_int(5, 12);
  plan.seed = rng.next_u64() >> 1;  // the wire carries signed ints
  return plan;
}

/// colorings[n] = a proper 3-coloring of the n-cycle, n in [5, 12].
const std::vector<std::vector<int>>& cycle_colorings() {
  static const std::vector<std::vector<int>> colorings = [] {
    std::vector<std::vector<int>> out(13);
    for (int n = 5; n <= 12; ++n) {
      out[static_cast<std::size_t>(n)] = *k_coloring(make_cycle(n), kSessionK);
    }
    return out;
  }();
  return colorings;
}

Json session_open_params(const SessionPlan& plan) {
  Json params = Json::object();
  params["session"] = plan.id;
  params["instance"] = inline_instance(make_cycle(plan.n));
  params["k"] = kSessionK;
  params["rounds"] = kSessionRounds;
  params["seed"] = static_cast<std::int64_t>(plan.seed);
  return params;
}

Json commit_msg(const std::vector<std::uint64_t>& commitments) {
  Json msg = Json::object();
  msg["type"] = "commit";
  Json& arr = (msg["commitments"] = Json::array());
  for (const std::uint64_t c : commitments) {
    arr.push_back(ia::hex16(c));
  }
  return msg;
}

Json open_msg(const ia::Opening& a, const ia::Opening& b) {
  Json msg = Json::object();
  msg["type"] = "open";
  Json& opens = (msg["opens"] = Json::array());
  for (const ia::Opening* o : {&a, &b}) {
    Json& entry = opens.push_back(Json::array());
    entry.push_back(o->node);
    entry.push_back(o->color);
    entry.push_back(ia::hex16(o->nonce));
  }
  return msg;
}

Json step_params(const std::string& id, Json msg) {
  Json params = Json::object();
  params["session"] = id;
  params["msg"] = std::move(msg);
  return params;
}

// ---------------------------------------------------------------------
// Callers: the wire (svc::Client) and the in-process oracle answer the
// same calls, so one session driver serves both.

Json envelope(const std::string& op, const Json& params,
              const std::string& id) {
  Json req = Json::object();
  req["id"] = id;
  req["op"] = op;
  req["params"] = params;
  req["check"] = fnv1a_hex(svc::artifact_key(op, params));
  return req;
}

class Caller {
 public:
  virtual ~Caller() = default;
  virtual CallResult call(const std::string& op, const Json& params) = 0;
};

svc::ClientOptions wire_options() {
  svc::ClientOptions options;
  options.timeout_ms = 10'000;
  options.retry.max_attempts = 1;  // the Client never retries on its own
  return options;
}

/// Calls that got no answer at all (connection lost or closed, framing
/// lost, timeout) and were sent once more. About one run in a hundred
/// loses one response this way (README.md). Resending is safe for the
/// cacheable ops, and the cache counters checked after the run allow
/// for each resend; session ops are never resent (SessionLoad restarts
/// the session instead). Answered errors are never resent.
std::atomic<std::uint64_t> g_resent{0};

std::string describe_failure(const std::string& op, const CallResult& r) {
  static const char* kKinds[] = {"answered", "connect refused", "timeout",
                                 "transport"};
  return format("%s: %s [%s] %s", op.c_str(),
                r.error_code.empty() ? "no response" : r.error_code.c_str(),
                kKinds[static_cast<int>(r.fail_kind)], r.error_detail.c_str());
}

class WireCaller final : public Caller {
 public:
  WireCaller(const std::string& target, SpanLog* spans)
      : client_(svc::Client::connector_for(target, svc::ChaosPlan{}),
                wire_options()),
        spans_(spans) {}

  void set_context(std::int64_t parent, std::uint64_t request) {
    parent_ = parent;
    request_ = request;
  }

  CallResult call(const std::string& op, const Json& params) override {
    CallResult r = call_once(op, params);
    if (!r.ok && r.error_code.empty() && op.rfind("session_", 0) != 0) {
      std::fprintf(stderr, "shlcp_bench: warning: resending %s\n",
                   describe_failure(op, r).c_str());
      g_resent.fetch_add(1);
      r = call_once(op, params);
    }
    if (!r.ok) {
      last_failure_ = describe_failure(op, r);
    }
    return r;
  }

  /// Why the most recent failed call failed.
  [[nodiscard]] const std::string& last_failure() const {
    return last_failure_;
  }

 private:
  CallResult call_once(const std::string& op, const Json& params) {
    if (spans_ == nullptr) {
      return client_.call(op, params);
    }
    ScopedSpan span(spans_, "wire." + op, parent_, request_);
    return client_.call(op, params);
  }

  svc::Client client_;
  SpanLog* spans_;
  std::int64_t parent_ = -1;
  std::uint64_t request_ = 0;
  std::string last_failure_;
};

class OracleCaller final : public Caller {
 public:
  /// With `spans`, each handle_text is a "service.handle.<op>" span.
  explicit OracleCaller(svc::Service& service, SpanLog* spans = nullptr)
      : service_(service), spans_(spans) {}

  CallResult call(const std::string& op, const Json& params) override {
    const std::string body =
        envelope(op, params, format("o%llu", static_cast<unsigned long long>(
                                                 next_id_++)))
            .dump();
    std::string response;
    if (spans_ != nullptr) {
      timed(*spans_, "service.handle." + op, -1, next_id_, false,
            [&] { response = service_.handle_text(body); });
    } else {
      response = service_.handle_text(body);
    }
    CallResult out;
    out.response = Json::parse(response);
    out.ok = out.response.at("ok").as_bool();
    if (out.ok) {
      out.result_dump = out.response.at("result").dump();
    } else {
      out.error_code = out.response.at("error").at("code").as_string();
      out.error_detail = out.response.at("error").at("message").as_string();
    }
    return out;
  }

 private:
  svc::Service& service_;
  SpanLog* spans_;
  std::uint64_t next_id_ = 0;
};

enum class Outcome { kOk, kError, kRefused, kLost, kWrong };

Outcome classify(const CallResult& r) {
  if (r.ok) {
    return Outcome::kOk;
  }
  if (r.error_code == svc::kErrOverloaded ||
      r.error_code == svc::kErrDraining) {
    return Outcome::kRefused;
  }
  return r.error_code.empty() ? Outcome::kLost : Outcome::kError;
}

/// Drives one honest kcol-commit session to its verdict; every reply's
/// result bytes go to `results`. kWrong when the verifier rejects.
Outcome run_session(const SessionPlan& plan, Caller& caller,
                    std::vector<std::string>* results, SpanLog* spans,
                    std::int64_t parent, std::uint64_t request) {
  CallResult r = caller.call("session_open", session_open_params(plan));
  if (!r.ok) {
    return classify(r);
  }
  results->push_back(r.result_dump);
  ia::CommitProver prover(cycle_colorings()[static_cast<std::size_t>(plan.n)],
                          kSessionK, plan.id, mix64(plan.seed));
  bool verdict = false;
  for (int round = 0; round < kSessionRounds; ++round) {
    std::vector<std::uint64_t> commitments;
    {
      ScopedSpan span(spans, "interactive.commit_round", parent, request);
      commitments = prover.commit_round();
    }
    r = caller.call("session_step",
                    step_params(plan.id, commit_msg(commitments)));
    if (!r.ok) {
      return classify(r);
    }
    results->push_back(r.result_dump);
    const Json challenge =
        Json::parse(r.result_dump).at("reply").at("challenge");
    const ia::Opening a =
        prover.open(static_cast<int>(challenge.at(0).as_int()));
    const ia::Opening b =
        prover.open(static_cast<int>(challenge.at(1).as_int()));
    r = caller.call("session_step", step_params(plan.id, open_msg(a, b)));
    if (!r.ok) {
      return classify(r);
    }
    results->push_back(r.result_dump);
    const Json stepped = Json::parse(r.result_dump);
    if (stepped.at("completed").as_bool()) {
      verdict = stepped.at("reply").at("verdict").as_bool();
    }
  }
  return verdict ? Outcome::kOk : Outcome::kWrong;
}

// ---------------------------------------------------------------------
// Loads: what one op of each workload is.

/// One kept op: enough to replay it against the oracle.
struct Sample {
  std::uint64_t index = 0;
  std::string op;
  std::string params;                // compact dump
  std::vector<std::string> results;  // each reply's result bytes
};

/// Seeded uniform sample of a thread's ok ops (algorithm R).
class Reservoir {
 public:
  Reservoir(std::size_t capacity, std::uint64_t seed)
      : capacity_(capacity), rng_(seed) {}

  /// Offers the next ok op; `make` builds its Sample only when kept.
  template <typename Make>
  void offer(Make&& make) {
    ++seen_;
    if (items_.size() < capacity_) {
      items_.push_back(make());
      return;
    }
    const std::uint64_t j = rng_.next_below(seen_);
    if (j < capacity_) {
      items_[j] = make();
    }
  }

  [[nodiscard]] const std::vector<Sample>& items() const { return items_; }

 private:
  std::size_t capacity_;
  Rng rng_;
  std::uint64_t seen_ = 0;
  std::vector<Sample> items_;
};

struct Job {
  std::uint64_t index = 0;
  int key = -1;  // warm: index into the key table
  ReqPtr req;    // warm / cold
  SessionPlan session;
};

class Load {
 public:
  virtual ~Load() = default;
  /// Job `index` of the timed stream; thread-safe. Empty when a stream
  /// prepared during setup has run out.
  virtual std::optional<Job> job(std::uint64_t index) = 0;
  virtual Outcome run(const Job& job, WireCaller& caller, Reservoir& sample,
                      SpanLog* spans, std::int64_t root) = 0;
  /// Brings a fresh system to its measured state; setup `k` of the run.
  virtual void prime(const std::string& target, int k, RunResult& out) = 0;
  /// Root span name of one multi-call op in a traced phase; null when an
  /// op is a single call, whose wire span is its root.
  [[nodiscard]] virtual const char* op_span() const { return nullptr; }
  /// Multi-call ops run again after a lost call (sessions only).
  [[nodiscard]] virtual std::uint64_t restarts() const { return 0; }
};

Outcome run_request(const Job& job, WireCaller& caller, Reservoir& sample,
                    const std::string* expected) {
  const CallResult r = caller.call(job.req->op, job.req->params);
  Outcome o = classify(r);
  if (o == Outcome::kOk && expected != nullptr && r.result_dump != *expected) {
    o = Outcome::kWrong;
  }
  if (o == Outcome::kOk) {
    sample.offer([&] {
      return Sample{job.index, job.req->op, job.req->params.dump(),
                    {r.result_dump}};
    });
  }
  return o;
}

/// serve_warm: 256 distinct keys over the four cacheable ops, primed
/// once, then replayed in seeded order (every timed request is a hit;
/// each reply must equal its key's primed bytes).
class WarmLoad final : public Load {
 public:
  explicit WarmLoad(std::uint64_t seed) : seed_(seed) {
    RequestStream stream(seed);
    keys_ = witness_keys();
    while (keys_.size() < kWarmKeys) {
      keys_.push_back(stream.next_ptr());
    }
  }

  std::optional<Job> job(std::uint64_t index) override {
    Job j;
    j.index = index;
    j.key = static_cast<int>(mix64(seed_ * 0x9E3779B97F4A7C15ULL + index) %
                             keys_.size());
    j.req = keys_[static_cast<std::size_t>(j.key)];
    return j;
  }

  Outcome run(const Job& job, WireCaller& caller, Reservoir& sample, SpanLog*,
              std::int64_t) override {
    return run_request(job, caller, sample,
                       &expected_[static_cast<std::size_t>(job.key)]);
  }

  void prime(const std::string& target, int k, RunResult& out) override {
    WireCaller caller(target, nullptr);
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      const CallResult r = caller.call(keys_[i]->op, keys_[i]->params);
      if (!r.ok) {
        out.fail(format("prime: %s failed: %s %s", keys_[i]->op.c_str(),
                        r.error_code.c_str(), r.error_detail.c_str()));
        return;
      }
      if (k == 0) {
        expected_.push_back(r.result_dump);
      } else if (expected_[i] != r.result_dump) {
        out.fail(format("prime: setup %d answered key %zu differently", k, i));
      }
    }
  }

 private:
  std::uint64_t seed_;
  std::vector<ReqPtr> keys_;
  std::vector<std::string> expected_;
};

/// serve_cold: every request a distinct key (seeded stream), so each one
/// misses, computes, inserts and -- past 8 MiB -- evicts. The whole timed
/// stream is drawn, deduplicated and serialized up front (`timed_ops`
/// requests); a client thread only parses job i's prepared params.
class ColdLoad final : public Load {
 public:
  ColdLoad(std::uint64_t seed, std::size_t timed_ops) {
    RequestStream stream(seed);
    for (std::size_t i = 0; i < kColdPrime; ++i) {
      prime_.push_back(stream.next_ptr());
    }
    // As compact text: a parsed request takes several kilobytes, and the
    // pool holds hundreds of thousands.
    pool_.reserve(timed_ops);
    for (std::size_t i = 0; i < timed_ops; ++i) {
      Prepared p;
      p.op = stream.next(&p.params).op;
      pool_.push_back(std::move(p));
    }
  }

  std::optional<Job> job(std::uint64_t index) override {
    if (index >= pool_.size()) {
      return std::nullopt;
    }
    const Prepared& p = pool_[index];
    Job j;
    j.index = index;
    j.req = std::make_shared<const Req>(Req{p.op, Json::parse(p.params)});
    return j;
  }

  Outcome run(const Job& job, WireCaller& caller, Reservoir& sample, SpanLog*,
              std::int64_t) override {
    return run_request(job, caller, sample, nullptr);
  }

  void prime(const std::string& target, int, RunResult& out) override {
    WireCaller caller(target, nullptr);
    for (const ReqPtr& r : prime_) {
      const CallResult res = caller.call(r->op, r->params);
      if (!res.ok) {
        out.fail(format("prime: %s failed: %s %s", r->op.c_str(),
                        res.error_code.c_str(), res.error_detail.c_str()));
        return;
      }
    }
  }

 private:
  struct Prepared {
    std::string op;
    std::string params;  // compact dump
  };
  std::vector<ReqPtr> prime_;
  std::vector<Prepared> pool_;
};

/// sessions: honest kcol-commit sessions (k = 3, 4 rounds) on seeded
/// inline cycles; one op is a whole session (9 calls).
class SessionLoad final : public Load {
 public:
  explicit SessionLoad(std::uint64_t seed) : seed_(seed) {}

  std::optional<Job> job(std::uint64_t index) override {
    Job j;
    j.index = index;
    j.session = session_plan(seed_, "bench-", index);
    return j;
  }

  Outcome run(const Job& job, WireCaller& caller, Reservoir& sample,
              SpanLog* spans, std::int64_t root) override {
    std::vector<std::string> results;
    const Outcome o =
        drive(job.session, caller, &results, spans, root, job.index);
    if (o == Outcome::kOk && !results.empty()) {
      sample.offer([&] {
        return Sample{job.index, "session", "", std::move(results)};
      });
    }
    return o;
  }

  [[nodiscard]] std::uint64_t restarts() const override {
    return restarts_.load();
  }

  void prime(const std::string& target, int k, RunResult& out) override {
    WireCaller caller(target, nullptr);
    for (std::size_t i = 0; i < kSessionPrime; ++i) {
      std::vector<std::string> results;
      const SessionPlan plan = session_plan(seed_, format("prime%d-", k), i);
      if (drive(plan, caller, &results, nullptr, -1, 0) != Outcome::kOk) {
        out.fail(format("prime: session %s did not complete", plan.id.c_str()));
        return;
      }
    }
  }

  [[nodiscard]] const char* op_span() const override { return "session"; }

 private:
  /// run_session; after a lost call, where the session stands is
  /// unknown, so it is closed (it may be gone already) and run once more
  /// under a fresh id. A rerun leaves `results` empty: the oracle replays
  /// the original ids.
  Outcome drive(const SessionPlan& plan, WireCaller& caller,
                std::vector<std::string>* results, SpanLog* spans,
                std::int64_t root, std::uint64_t index) {
    const Outcome o = run_session(plan, caller, results, spans, root, index);
    if (o != Outcome::kLost) {
      return o;
    }
    std::fprintf(stderr, "shlcp_bench: warning: restarting session %s: %s\n",
                 plan.id.c_str(), caller.last_failure().c_str());
    restarts_.fetch_add(1);
    Json close = Json::object();
    close["session"] = plan.id;
    (void)caller.call("session_close", close);
    SessionPlan again = plan;
    again.id += "-r";
    std::vector<std::string> rerun;
    results->clear();
    return run_session(again, caller, &rerun, spans, root, index);
  }

  std::uint64_t seed_;
  std::atomic<std::uint64_t> restarts_{0};
};

// ---------------------------------------------------------------------
// Phases.

struct PhaseResult {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t refused = 0;
  std::uint64_t lost = 0;
  std::uint64_t wrong = 0;
  std::vector<double> latency_us;  // failed ops count as +inf
  std::vector<double> late_us;     // open loop only
  // Ok ops only, pairwise: completion time and latency.
  std::vector<std::uint64_t> done_ns;
  std::vector<double> ok_latency_us;
  double elapsed_s = 0.0;
  Windows windows;
  bool exhausted = false;  // the load's prepared stream ran out
  std::vector<std::string> failure_notes;  // the first few, with reasons

  void tally(Outcome o) {
    ++attempted;
    switch (o) {
      case Outcome::kOk: ++ok; break;
      case Outcome::kError: ++errors; break;
      case Outcome::kRefused: ++refused; break;
      case Outcome::kLost: ++lost; break;
      case Outcome::kWrong: ++wrong; break;
    }
  }

  void merge(PhaseResult&& o) {
    attempted += o.attempted;
    ok += o.ok;
    errors += o.errors;
    refused += o.refused;
    lost += o.lost;
    wrong += o.wrong;
    latency_us.insert(latency_us.end(), o.latency_us.begin(),
                      o.latency_us.end());
    late_us.insert(late_us.end(), o.late_us.begin(), o.late_us.end());
    done_ns.insert(done_ns.end(), o.done_ns.begin(), o.done_ns.end());
    ok_latency_us.insert(ok_latency_us.end(), o.ok_latency_us.begin(),
                         o.ok_latency_us.end());
    exhausted = exhausted || o.exhausted;
    failure_notes.insert(failure_notes.end(), o.failure_notes.begin(),
                         o.failure_notes.end());
  }
};

void sleep_until_ns(std::uint64_t t) {
  const std::uint64_t now = now_ns();
  if (t > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
  }
}

/// kClientThreads threads, each on its own connection. rate == 0 is a
/// closed loop (next op as soon as the last returns); rate > 0 an open
/// loop: the next free thread takes op k, prepares it, sleeps until it
/// is due at start + k / rate, and the op's latency counts from then.
/// The phase is cut into `windows` equal windows; `cpu` (SUT CPU
/// seconds) is sampled at each boundary.
PhaseResult run_phase(Load& load, const std::string& target, double seconds,
                      double rate, SpanLog* spans,
                      std::vector<Reservoir>& samples,
                      std::atomic<std::uint64_t>& next_index, int windows,
                      const std::function<double()>& cpu) {
  std::vector<PhaseResult> outs(kClientThreads);
  std::atomic<std::uint64_t> next_op{0};
  const std::uint64_t start = now_ns();
  const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
  const OpenLoopSchedule schedule{start, rate};
  std::vector<std::thread> threads;
  for (int w = 0; w < kClientThreads; ++w) {
    threads.emplace_back([&, w] {
      PhaseResult& out = outs[static_cast<std::size_t>(w)];
      WireCaller caller(target, spans);
      for (;;) {
        std::uint64_t due = 0;
        if (rate > 0) {
          due = schedule.due_ns(next_op.fetch_add(1));
          if (due >= end) {
            break;
          }
        } else if (now_ns() >= end) {
          break;
        }
        const std::optional<Job> job = load.job(next_index.fetch_add(1));
        if (!job) {
          out.exhausted = true;
          break;
        }
        if (rate > 0) {
          sleep_until_ns(due);
        }
        const std::uint64_t sent = now_ns();
        Outcome o;
        {
          ScopedSpan root(load.op_span() != nullptr ? spans : nullptr,
                          load.op_span() != nullptr ? load.op_span() : "",
                          -1, job->index);
          caller.set_context(root.index(), job->index);
          o = load.run(*job, caller, samples[static_cast<std::size_t>(w)],
                       spans, root.index());
        }
        const std::uint64_t done = now_ns();
        out.tally(o);
        if (o != Outcome::kOk && out.failure_notes.size() < 3) {
          out.failure_notes.push_back(format(
              "op #%llu: %s", static_cast<unsigned long long>(job->index),
              o == Outcome::kWrong ? "wrong result"
                                   : caller.last_failure().c_str()));
        }
        double latency_us = static_cast<double>(done - sent) / 1e3;
        if (rate > 0) {
          const OpenLoopTiming t = open_loop_timing(due, sent, done);
          latency_us = t.latency_us;
          out.late_us.push_back(t.late_us);
        }
        out.latency_us.push_back(o == Outcome::kOk
                                     ? latency_us
                                     : std::numeric_limits<double>::infinity());
        if (o == Outcome::kOk) {
          out.done_ns.push_back(done);
          out.ok_latency_us.push_back(latency_us);
        }
      }
    });
  }
  const std::uint64_t window_ns =
      (end - start) / static_cast<std::uint64_t>(windows);
  std::vector<double> cpu_at = {cpu()};
  for (int k = 1; k <= windows; ++k) {
    sleep_until_ns(start + window_ns * static_cast<std::uint64_t>(k));
    cpu_at.push_back(cpu());
  }
  for (std::thread& t : threads) {
    t.join();
  }
  PhaseResult total;
  total.elapsed_s = static_cast<double>(now_ns() - start) / 1e9;
  for (PhaseResult& o : outs) {
    total.merge(std::move(o));
  }
  total.windows = window_stats(total.done_ns, total.ok_latency_us, start,
                               window_ns, cpu_at);
  return total;
}

/// `health` once a second on its own connection while alive (traced
/// runs only): the queue-depth and live-session peaks a 1 Hz operator
/// poll would see.
class HealthSampler {
 public:
  explicit HealthSampler(const std::string& target)
      : thread_([this, target] { loop(target); }) {}
  ~HealthSampler() {
    stop_.store(true);
    thread_.join();
  }
  HealthSampler(const HealthSampler&) = delete;
  HealthSampler& operator=(const HealthSampler&) = delete;

  [[nodiscard]] std::uint64_t queue_depth_max() const {
    return queue_max_.load();
  }
  [[nodiscard]] std::uint64_t live_max() const { return live_max_.load(); }

 private:
  void loop(const std::string& target) {
    WireCaller caller(target, nullptr);
    while (!stop_.load()) {
      const CallResult r = caller.call("health", Json::object());
      if (r.ok) {
        const Json h = Json::parse(r.result_dump);
        queue_max_.store(std::max(queue_max_.load(),
                                  h.at("queue").at("depth").as_uint()));
        if (h.contains("sessions")) {
          live_max_.store(std::max(live_max_.load(),
                                   h.at("sessions").at("live").as_uint()));
        }
      }
      for (int i = 0; i < 100 && !stop_.load(); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  }

  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> queue_max_{0};
  std::atomic<std::uint64_t> live_max_{0};
  std::thread thread_;  // last: starts after the members it uses
};

// ---------------------------------------------------------------------
// The system under test.

struct Backend {
  std::string name;
  std::string target;
  pid_t pid = -1;
};

struct System {
  std::unique_ptr<ChildProcess> proc;
  std::string target;             // "unix:<socket>"
  std::vector<Backend> backends;  // routed: the router's fleet
};

Json call_json(const std::string& target, const std::string& op) {
  WireCaller caller(target, nullptr);
  const CallResult r = caller.call(op, Json::object());
  return r.ok ? Json::parse(r.result_dump) : Json();
}

/// spawn -> ready. Every setup gets its own directory, so the router's
/// backend cache dirs start empty (no warm disk hits from an earlier
/// setup or run).
std::unique_ptr<System> start_system(const Options& opt, const Spec& spec,
                                     int k, RunResult& out) {
  const std::string dir = format("%s/setup%d", opt.work_dir.c_str(), k);
  std::filesystem::create_directories(dir);
  const std::string socket = dir + "/sut.sock";
  const std::string port_file = dir + "/ports.json";
  const std::string shlcpd = opt.exe_dir + "/shlcpd";
  std::vector<std::string> argv;
  if (spec.routed) {
    argv = {opt.exe_dir + "/shlcp_router", "--spawn", "2", "--spawn-dir",
            dir + "/fleet", "--shlcpd", shlcpd, "--threads", "1",
            "--backend-threads", "1", "--socket", socket, "--port-file",
            port_file};
  } else {
    argv = {shlcpd, "--socket", socket, "--port-file", port_file, "--threads",
            "2"};
    if (spec.kind == Kind::kCold) {
      argv.insert(argv.end(),
                  {"--cache-bytes", std::to_string(kColdCacheBytes)});
    }
  }
  auto sys = std::make_unique<System>();
  sys->target = "unix:" + socket;
  sys->proc = std::make_unique<ChildProcess>(argv, dir + "/sut.log");
  if (!sys->proc->wait_ready(port_file, socket, 30'000)) {
    out.fail(format("setup %d: %s never became ready (log: %s/sut.log)", k,
                    argv[0].c_str(), dir.c_str()));
    return nullptr;
  }
  if (spec.routed) {
    const Json health = call_json(sys->target, "health");
    if (health.is_null()) {
      out.fail("setup: router health failed");
      return nullptr;
    }
    for (const Json& b : health.at("backends").items()) {
      sys->backends.push_back({b.at("name").as_string(),
                               b.at("target").as_string(),
                               static_cast<pid_t>(b.at("pid").as_int())});
    }
  }
  return sys;
}

void stop_system(System& sys, RunResult& out) {
  const int code = sys.proc->stop();
  if (code != 0) {
    out.fail(format("system under test exited with code %d after SIGINT",
                    code));
  }
  for (const Backend& b : sys.backends) {
    // The router SIGINTs and reaps its fleet on drain; none may linger.
    if (b.pid > 0 && ::kill(b.pid, 0) == 0) {
      out.fail(format("backend %s (pid %d) outlived the router", b.name.c_str(),
                      static_cast<int>(b.pid)));
    }
  }
}

// ---------------------------------------------------------------------
// Output checks after the timed window.

/// Replays the kept samples against a fresh in-process Service and
/// compares every result byte for byte. Returns the mismatch count.
std::uint64_t oracle_check(const Spec& spec,
                           const std::vector<Reservoir>& samples,
                           std::uint64_t seed, RunResult& out,
                           std::size_t* checked) {
  svc::ServiceConfig config;
  if (spec.kind == Kind::kCold) {
    config.cache.max_bytes = kColdCacheBytes;
  }
  svc::Service oracle(config);
  OracleCaller caller(oracle);
  std::uint64_t mismatches = 0;
  *checked = 0;
  for (const Reservoir& r : samples) {
    for (const Sample& s : r.items()) {
      std::vector<std::string> expected;
      if (spec.kind == Kind::kSessions) {
        run_session(session_plan(seed, "bench-", s.index), caller, &expected,
                    nullptr, -1, 0);
      } else {
        const CallResult res = caller.call(s.op, Json::parse(s.params));
        expected.push_back(res.result_dump);
      }
      ++*checked;
      if (expected != s.results) {
        ++mismatches;
        if (mismatches <= 3) {
          out.fail(format("oracle: %s #%llu differs from the in-process "
                          "Service",
                          s.op.c_str(),
                          static_cast<unsigned long long>(s.index)));
        }
      }
    }
  }
  return mismatches;
}

std::uint64_t u64_at(const Json& j, std::initializer_list<const char*> path) {
  const Json* cur = &j;
  for (const char* p : path) {
    if (!cur->is_object() || !cur->contains(p)) {
      return 0;
    }
    cur = &cur->at(p);
  }
  return cur->is_integer() ? cur->as_uint() : 0;
}

void expect_eq(RunResult& out, const char* what, std::uint64_t got,
               std::uint64_t want) {
  if (got != want) {
    out.fail(format("%s: %llu, expected %llu", what,
                    static_cast<unsigned long long>(got),
                    static_cast<unsigned long long>(want)));
  }
}

void expect_between(RunResult& out, const char* what, std::uint64_t got,
                    std::uint64_t lo, std::uint64_t hi) {
  if (lo == hi) {
    expect_eq(out, what, got, lo);
  } else if (got < lo || got > hi) {
    out.fail(format("%s: %llu, expected %llu..%llu", what,
                    static_cast<unsigned long long>(got),
                    static_cast<unsigned long long>(lo),
                    static_cast<unsigned long long>(hi)));
  }
}

// ---------------------------------------------------------------------
// Per-layer replays (traced runs).

const Lcp& lcp_named(const std::string& name) {
  static const DegreeOneLcp degree_one;
  static const SpanningBfsLcp spanning_bfs;
  static const EvenCycleLcp even_cycle;
  if (name == "degree-one") return degree_one;
  if (name == "spanning-bfs") return spanning_bfs;
  if (name == "even-cycle") return even_cycle;
  throw std::runtime_error("no direct compute for lcp " + name);
}

Graph graph_from_spec(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  const int n = std::stoi(spec.substr(colon + 1));
  if (kind == "path") return make_path(n);
  if (kind == "star") return make_star(n);
  return make_cycle(n);
}

/// The cold ops' work as direct library calls, one span per layer.
void compute_direct(const svc::Request& req, SpanLog& log, std::int64_t root,
                    std::uint64_t id) {
  const Json& p = req.params;
  if (req.op == "check_coloring") {
    Graph g;
    timed(log, "proto.decode", root, id, true,
          [&] { g = svc::graph_from_json(p.at("graph")); });
    timed(log, "graph.k_coloring", root, id, true,
          [&] { (void)k_coloring(g, static_cast<int>(p.at("k").as_int())); });
  } else if (req.op == "run_decoder") {
    const Lcp& lcp = lcp_named(p.at("lcp").as_string());
    Instance inst;
    timed(log, "proto.decode", root, id, true,
          [&] { inst = svc::instance_from_json(p.at("instance")); });
    std::optional<Labeling> labels;
    timed(log, "certify.prove", root, id, true,
          [&] { labels = lcp.prove(inst.g, inst.ports, inst.ids); });
    if (!labels) {
      return;  // the service refuses this request too
    }
    inst.labels = std::move(*labels);
    timed(log, "audit.repro", root, id, true, [&] {
      (void)make_repro(lcp.name(), "inline", "honest", FaultPlan{});
    });
    timed(log, "sim.run_decoder", root, id, true, [&] {
      (void)run_decoder_distributed_faulty(lcp.decoder(), inst, FaultPlan{});
    });
  } else if (req.op == "build_nbhd") {
    const Lcp& lcp = lcp_named(p.at("lcp").as_string());
    std::vector<Graph> graphs;
    timed(log, "proto.decode", root, id, false, [&] {
      graphs.clear();
      for (const Json& s : p.at("graphs").items()) {
        graphs.push_back(graph_from_spec(s.as_string()));
      }
    });
    EnumOptions enums;
    enums.max_labelings_per_frame = 2'000'000;
    NbhdGraph nbhd;
    timed(log, "nbhd.build_proved", root, id, false,
          [&] { nbhd = build_proved(lcp, graphs, enums); });
    timed(log, "nbhd.analysis", root, id, true, [&] {
      (void)nbhd.k_colorable(lcp.k());
      (void)nbhd.odd_cycle();
    });
  }
}

const std::vector<std::string>& hit_stages() {
  static const std::vector<std::string> s = {
      "json.parse",     "proto.envelope", "cache.key",    "cache.digest",
      "metrics.lookup", "json.free",      "cache.get_hit", "json.reparse",
      "json.dump"};
  return s;
}

const std::vector<std::string>& miss_stages() {
  static const std::vector<std::string> s = {
      "json.parse",       "proto.envelope",    "cache.key",
      "cache.digest",     "metrics.lookup",    "json.free",
      "cache.get_miss",   "proto.decode",      "certify.prove",
      "audit.repro",      "graph.k_coloring",  "sim.run_decoder",
      "nbhd.build_proved", "nbhd.analysis",    "json.build",
      "json.dump",        "cache.insert"};
  return s;
}

const std::vector<std::string>& session_stages() {
  static const std::vector<std::string> s = {
      "json.parse",     "proto.envelope", "cache.key",
      "cache.digest",   "metrics.lookup", "json.free",
      "interactive.table_step", "json.build", "json.dump"};
  return s;
}

/// The service's front half -- parse, envelope, key, digest, metrics
/// lookup -- as stage spans under `root`, then freeing the parsed
/// envelope (handle_text frees it too); returns the parsed request.
svc::Request front_stages(const std::string& body, SpanLog& log,
                          std::int64_t root, std::uint64_t id,
                          std::string* key) {
  Json j;
  svc::Request req;
  timed(log, "json.parse", root, id, true, [&] { j = Json::parse(body); });
  timed(log, "proto.envelope", root, id, true,
        [&] { req = svc::parse_request(j); });
  timed(log, "cache.key", root, id, true,
        [&] { *key = svc::artifact_key(req.op, req.params); });
  timed(log, "cache.digest", root, id, true, [&] { (void)fnv1a_hex(*key); });
  timed(log, "metrics.lookup", root, id, true, [&] {
    metrics::counter(format("service.%s.requests", req.op.c_str()));
    metrics::histogram(format("service.%s.latency_ns", req.op.c_str()));
  });
  timed(log, "json.free", root, id, false, [&] { j = Json(); });
  return req;
}

/// What the client does around one call besides waiting: the check
/// digest, the envelope + frame, and decoding + verifying the response.
void client_stages(const std::string& op, const Json& params,
                   const std::string& response, SpanLog& log,
                   std::uint64_t id) {
  const std::string response_frame = svc::encode_frame(response);
  const std::int64_t root = log.open("client.local", -1, id);
  std::string check;
  timed(log, "client.check", root, id, true,
        [&] { check = fnv1a_hex(svc::artifact_key(op, params)); });
  timed(log, "client.encode", root, id, true, [&] {
    Json req = Json::object();
    req["id"] = "c0";
    req["op"] = op;
    req["params"] = params;
    req["check"] = check;
    (void)svc::encode_frame(req.dump());
  });
  timed(log, "client.decode", root, id, true, [&] {
    svc::FrameReader reader;
    reader.feed(response_frame);
    std::string frame;
    std::string error;
    reader.next(&frame, &error);
    const Json resp = Json::parse(frame);
    const std::string dumped = resp.at("result").dump();
    (void)(resp.at("digest").as_string() == fnv1a_hex(dumped));
  });
  log.close(root);
}

/// In-process replay of `reqs` through the request path: handle_text on
/// a Service (the reference the stages are measured against) and the
/// same body stage by stage, in alternating order so neither always runs
/// on caches the other warmed. kHit primes first so every request hits.
enum class Path { kHit, kMiss };

void probe_request_path(const std::vector<ReqPtr>& reqs, Path path,
                        std::size_t cache_bytes, SpanLog& log,
                        std::map<std::uint64_t, std::string>& ops) {
  svc::ServiceConfig config;
  config.cache.max_bytes = cache_bytes;
  svc::Service service(config);
  // Answers each body untimed, so the stage replay has the service's
  // result document without touching the timed Service's cache.
  svc::Service reference(config);
  svc::ArtifactCache cache(svc::CacheConfig{cache_bytes, ""});
  svc::ArtifactCache insert_cache(svc::CacheConfig{cache_bytes, ""});
  std::uint64_t id = 0;
  if (path == Path::kHit) {
    std::set<const Req*> primed;
    for (const ReqPtr& r : reqs) {
      if (!primed.insert(r.get()).second) {
        continue;
      }
      const std::string body = envelope(r->op, r->params, "p").dump();
      std::string response;
      timed(log, "service.handle_miss", -1, ++id, false,
            [&] { response = service.handle_text(body); });
      const std::string key = svc::artifact_key(r->op, r->params);
      const std::string result = Json::parse(response).at("result").dump();
      cache.insert(key, result);
      timed(log, "cache.insert", -1, id, false,
            [&] { insert_cache.insert(key, result); });
    }
  }
  for (const ReqPtr& r : reqs) {
    const std::uint64_t rid = ++id;
    ops[rid] = r->op;
    const std::string body =
        envelope(r->op, r->params,
                 format("c%llu", static_cast<unsigned long long>(rid)))
            .dump();
    const std::string response = reference.handle_text(body);
    const Json result = Json::parse(response).at("result");
    const auto handle = [&] {
      timed(log,
            path == Path::kHit ? "service.handle_hit" : "service.handle_miss",
            -1, rid, false, [&] { (void)service.handle_text(body); });
    };
    if (rid % 2 == 0) {
      handle();
    }

    const std::int64_t root = log.open("stages", -1, rid);
    std::string key;
    svc::Request req = front_stages(body, log, root, rid, &key);
    if (path == Path::kHit) {
      std::optional<std::string> cached;
      timed(log, "cache.get_hit", root, rid, true,
            [&] { cached = cache.get(key); });
      Json reparsed;
      timed(log, "json.reparse", root, rid, true,
            [&] { reparsed = Json::parse(*cached); });
      std::string digest;
      timed(log, "cache.digest", root, rid, true,
            [&] { digest = fnv1a_hex(*cached); });
      timed(log, "json.dump", root, rid, true, [&] {
        (void)svc::ok_response(req.id, reparsed, true, digest).dump();
      });
    } else {
      timed(log, "cache.get_miss", root, rid, true,
            [&] { (void)cache.get(key); });
      compute_direct(req, log, root, rid);
      // The service builds its result document member by member from the
      // op's values; rebuilding it from the finished document's members
      // does the same keyed inserts and value allocations.
      timed(log, "json.build", root, rid, true, [&] {
        Json built = Json::object();
        for (const auto& [name, value] : result.members()) {
          built[name] = value;
        }
      });
      std::string dumped;
      timed(log, "json.dump", root, rid, true, [&] { dumped = result.dump(); });
      std::string digest;
      timed(log, "cache.digest", root, rid, true,
            [&] { digest = fnv1a_hex(dumped); });
      timed(log, "cache.insert", root, rid, false,
            [&] { cache.insert(key, dumped); });
      timed(log, "json.dump", root, rid, true, [&] {
        (void)svc::ok_response(req.id, result, false, digest).dump();
      });
    }
    timed(log, "json.free", root, rid, false, [&] { req = svc::Request{}; });
    log.close(root);
    if (rid % 2 == 1) {
      handle();
    }

    // Outside the handle_text path: the other side of the same lookup,
    // the transport framing, and the client's own work.
    if (path == Path::kHit) {
      const std::string absent = key + "#";
      timed(log, "cache.get_miss", -1, rid, true,
            [&] { (void)cache.get(absent); });
    } else {
      timed(log, "cache.get_hit", -1, rid, true, [&] { (void)cache.get(key); });
      timed(log, "service.handle_hit", -1, rid, false,
            [&] { (void)service.handle_text(body); });
    }
    timed(log, "proto.frame", -1, rid, true, [&] {
      svc::FrameReader reader;
      reader.feed(svc::encode_frame(body));
      std::string frame;
      std::string error;
      reader.next(&frame, &error);
    });
    client_stages(r->op, r->params, response, log, rid);
  }
}

/// In-process sessions: each through a Service (the handle reference)
/// and a mirrored one through a bare SessionTable with the session
/// step's front stages, so table_step and coverage come from the same
/// bodies.
void probe_sessions(std::uint64_t seed, std::size_t count, SpanLog& log) {
  svc::Service service;
  OracleCaller timed_service(service, &log);
  ia::SessionTable table(ia::SessionLimits{});
  const ia::KColCommitProtocol protocol;
  std::uint64_t id = 1'000'000;
  for (std::size_t s = 0; s < count; ++s) {
    const SessionPlan plan = session_plan(seed, "probe-", s);
    std::vector<std::string> ignored;
    run_session(plan, timed_service, &ignored, &log, -1, s);

    const std::string tid = "t-" + plan.id;
    Json open_params = session_open_params(plan);
    open_params["session"] = tid;
    ia::OpenContext ctx;
    ctx.session_id = tid;
    ctx.graph = make_cycle(plan.n);
    ctx.params = &open_params;
    ctx.challenge_seed = mix64(plan.seed ^ 0x7AB1EULL);
    timed(log, "interactive.table_open", -1, ++id, false, [&] {
      table.open(tid, -1, [&] { return protocol.open(ctx); });
    });
    ia::CommitProver prover(cycle_colorings()[static_cast<std::size_t>(plan.n)],
                            kSessionK, tid, mix64(plan.seed));
    const auto step = [&](Json msg) {
      const std::uint64_t rid = ++id;
      const Json params = step_params(tid, msg);
      const std::string body = envelope("session_step", params, "c0").dump();
      const std::int64_t root = log.open("stages", -1, rid);
      std::string key;
      const svc::Request req = front_stages(body, log, root, rid, &key);
      ia::SessionTable::StepResult res;
      timed(log, "interactive.table_step", root, rid, false,
            [&] { res = table.step(tid, msg); });
      Json result;
      timed(log, "json.build", root, rid, true, [&] {
        result = Json::object();
        result["session"] = tid;
        result["reply"] = res.reply;
        result["completed"] = res.completed;
      });
      std::string dumped;
      timed(log, "json.dump", root, rid, true, [&] { dumped = result.dump(); });
      std::string digest;
      timed(log, "cache.digest", root, rid, true,
            [&] { digest = fnv1a_hex(dumped); });
      timed(log, "json.dump", root, rid, true, [&] {
        (void)svc::ok_response(req.id, result, false, digest).dump();
      });
      log.close(root);
      client_stages("session_step", params,
                    svc::ok_response(Json("c0"), result, false, digest).dump(),
                    log, rid);
      return res.reply;
    };
    for (int round = 0; round < kSessionRounds; ++round) {
      std::vector<std::uint64_t> commitments;
      timed(log, "interactive.commit_round", -1, id, false,
            [&] { commitments = prover.commit_round(); });
      const Json reply = step(commit_msg(commitments));
      const int u = static_cast<int>(reply.at("challenge").at(0).as_int());
      const int v = static_cast<int>(reply.at("challenge").at(1).as_int());
      ia::Opening a;
      ia::Opening b;
      timed(log, "interactive.open", -1, id, true, [&] {
        a = prover.open(u);
        b = prover.open(v);
      });
      step(open_msg(a, b));
    }
  }
}

/// A routed system: each sampled request through the router and straight
/// to the backend that owns its key (alternating which goes first), so
/// the difference of the medians is the forward hop.
void probe_router(const System& sys, Load& load, std::size_t count,
                  SpanLog& log, RunResult& out) {
  svc::RouterOptions options;
  for (const Backend& b : sys.backends) {
    options.backends.push_back(svc::BackendSpec{b.name, b.target});
  }
  const svc::Router ring(options);
  WireCaller routed(sys.target, nullptr);
  std::vector<std::unique_ptr<WireCaller>> direct;
  for (const Backend& b : sys.backends) {
    direct.push_back(std::make_unique<WireCaller>(b.target, nullptr));
  }
  for (std::size_t i = 0; i < count; ++i) {
    const Job job =
        *load.job(std::numeric_limits<std::uint64_t>::max() / 2 + i);
    const std::uint64_t rid = 2'000'000 + i;
    int owner = 0;
    timed(log, "router.ring", -1, rid, true,
          [&] {
            owner = ring.preference_for(job.req->op, job.req->params)[0];
          });
    const auto via_router = [&] {
      timed(log, "router.routed", -1, rid, false, [&] {
        if (!routed.call(job.req->op, job.req->params).ok) {
          out.wrong += 1;
        }
      });
    };
    const auto via_backend = [&] {
      timed(log, "router.direct", -1, rid, false, [&] {
        if (!direct[static_cast<std::size_t>(owner)]
                 ->call(job.req->op, job.req->params)
                 .ok) {
          out.wrong += 1;
        }
      });
    };
    if (i % 2 == 0) {
      via_router();
      via_backend();
    } else {
      via_backend();
      via_router();
    }
  }
}

double p50_us(const std::vector<Span>& spans, std::string_view name) {
  return median(per_call_ns(spans, name)) / 1e3;
}

/// Request-weighted mean over op groups of (sum of stage p50s) / (handle
/// p50): how much of handle_text the measured stages explain.
double coverage(const std::vector<Span>& spans,
                const std::map<std::uint64_t, std::string>& ops,
                const std::vector<std::string>& stages,
                const std::string& handle) {
  std::map<std::string, std::set<std::uint64_t>> groups;
  for (const auto& [id, op] : ops) {
    groups[op].insert(id);
  }
  std::map<std::uint64_t, double> handle_ns;
  for (const Span& s : spans) {
    if (s.name == handle) {
      handle_ns[s.request] = static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, std::map<std::uint64_t, double>> stage_totals;
  for (const std::string& stage : stages) {
    stage_totals[stage] = child_totals_ns(spans, stage);
  }
  double weighted = 0.0;
  std::size_t total = 0;
  for (const auto& [op, ids] : groups) {
    std::vector<double> handles;
    for (const std::uint64_t id : ids) {
      if (handle_ns.count(id) != 0) {
        handles.push_back(handle_ns.at(id));
      }
    }
    double sum = 0.0;
    for (const std::string& stage : stages) {
      std::vector<double> xs;
      for (const std::uint64_t id : ids) {
        const auto it = stage_totals[stage].find(id);
        if (it != stage_totals[stage].end()) {
          xs.push_back(it->second);
        }
      }
      sum += median(xs);
    }
    const double h = median(handles);
    if (h > 0) {
      weighted += static_cast<double>(ids.size()) * sum / h;
      total += ids.size();
    }
  }
  return total == 0 ? 0.0 : weighted / static_cast<double>(total);
}

/// Traced serve_warm: the same keys through shlcp_router and the two
/// backends it spawns. Priming the fleet checks every routed reply
/// against the direct daemon's bytes; probe_router then prices the
/// forward hop. The fleet's counters must show no reroutes, backend
/// misses summing to the distinct keys (disjoint shards) and no
/// disk-cache hits (fresh cache dirs).
void probe_fleet(const Options& opt, const Spec& spec, Load& load,
                 SpanLog& log, RunResult& out) {
  Spec fleet = spec;
  fleet.routed = true;
  const std::unique_ptr<System> sys = start_system(opt, fleet, kSetups, out);
  if (!sys) {
    return;
  }
  load.prime(sys->target, kSetups, out);
  probe_router(*sys, load, opt.smoke ? 100 : 1000, log, out);
  const Json health = call_json(sys->target, "health");
  stop_system(*sys, out);
  if (health.is_null()) {
    out.fail("fleet: final health call failed");
    return;
  }
  double lo = std::numeric_limits<double>::max();
  double hi = 0;
  std::uint64_t rerouted = 0;
  std::uint64_t misses = 0;
  std::uint64_t disk_hits = 0;
  for (const Json& b : health.at("backends").items()) {
    const double f = static_cast<double>(b.at("forwarded").as_uint());
    lo = std::min(lo, f);
    hi = std::max(hi, f);
    rerouted += b.at("rerouted").as_uint();
    misses += u64_at(b, {"health", "cache", "misses"});
    disk_hits += u64_at(b, {"health", "cache", "disk_hits"});
  }
  expect_eq(out, "fleet: router reroutes", rerouted, 0);
  expect_eq(out, "fleet: sum of backend cache misses", misses, kWarmKeys);
  expect_eq(out, "fleet: backend disk-cache hits", disk_hits, 0);
  const std::vector<Span> all = log.snapshot();
  out.metric("router.hop_us",
             p50_us(all, "router.routed") - p50_us(all, "router.direct"), "us");
  out.metric("router.ring_us", p50_us(all, "router.ring"), "us");
  out.metric("router.skew", lo > 0 ? hi / lo : 0.0, "ratio");
  out.metric("router.rerouted", static_cast<double>(rerouted), "count");
}

}  // namespace

void run_serving(const Options& opt, SpanLog* spans, RunResult& out) {
  const Spec& spec = spec_for(opt.workload);
  const double half = opt.seconds / 2;
  // The requests are built before the first setup and outside setup_s.
  const std::uint64_t inputs0 = now_ns();
  std::unique_ptr<Load> load;
  switch (spec.kind) {
    case Kind::kWarm: load = std::make_unique<WarmLoad>(opt.seed); break;
    case Kind::kCold: {
      // Every closed-loop second at up to kColdPoolRate, then exactly the
      // open-loop schedule.
      const auto timed_ops = static_cast<std::size_t>(
          std::ceil(half * kColdPoolRate + half * spec.open_rate));
      load = std::make_unique<ColdLoad>(opt.seed, timed_ops);
      out.details["pool_requests"] = static_cast<std::uint64_t>(timed_ops);
      break;
    }
    case Kind::kSessions: load = std::make_unique<SessionLoad>(opt.seed); break;
  }
  out.details["inputs_s"] = static_cast<double>(now_ns() - inputs0) / 1e9;
  // Precise open-loop wakeups: the default 50 us timer slack would
  // otherwise land in every open-loop latency.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  // Setup: spawn -> ready -> primed, several times; the last one stays
  // up for the timed phases.
  std::vector<double> setup_s;
  std::vector<double> ready_s;
  std::unique_ptr<System> sys;
  for (int k = 0; k < (opt.smoke ? 1 : kSetups); ++k) {
    if (sys) {
      stop_system(*sys, out);
    }
    const std::uint64_t t0 = now_ns();
    sys = start_system(opt, spec, k, out);
    if (!sys) {
      return;
    }
    ready_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    load->prime(sys->target, k, out);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (!out.failures.empty()) {
      stop_system(*sys, out);
      return;
    }
  }

  std::atomic<std::uint64_t> next_index{0};
  std::vector<Reservoir> samples;
  for (int w = 0; w < kClientThreads; ++w) {
    samples.emplace_back(
        spec.kind == Kind::kSessions ? kSessionSamplePerThread
                                     : kSamplePerThread,
        mix64(opt.seed ^ (0x5A3B1EULL + static_cast<std::uint64_t>(w))));
  }
  const pid_t pid = sys->proc->pid();
  const auto cpu_now = [pid] { return proc_cpu_seconds(pid); };
  // A traced run splits the closed half: untraced, then traced.
  const double closed_s = spans != nullptr ? half / 2 : half;
  const auto windows_in = [](double seconds) {
    return std::max(2, static_cast<int>(seconds / kWindowSeconds));
  };
  PhaseResult untraced;
  if (spans != nullptr) {
    untraced = run_phase(*load, sys->target, closed_s, 0, nullptr, samples,
                         next_index, windows_in(closed_s), cpu_now);
  }
  std::unique_ptr<HealthSampler> sampler;
  if (spans != nullptr) {
    sampler = std::make_unique<HealthSampler>(sys->target);
  }
  const double cpu0 = cpu_now();
  PhaseResult closed =
      run_phase(*load, sys->target, closed_s, 0, spans, samples, next_index,
                windows_in(closed_s), cpu_now);
  const double cpu_s = cpu_now() - cpu0;
  PhaseResult open = run_phase(*load, sys->target, half, spec.open_rate, spans,
                               samples, next_index, windows_in(half), cpu_now);
  const std::uint64_t restarts = load->restarts();
  if (spec.kind == Kind::kCold) {
    // The in-process probes below must not run in a heap still holding
    // the prepared stream.
    load.reset();
  }
  const std::uint64_t queue_depth_max =
      sampler ? sampler->queue_depth_max() : 0;
  const std::uint64_t live_max = sampler ? sampler->live_max() : 0;
  sampler.reset();
  const double peak_rss_mb = proc_peak_rss_mb(pid);
  const Json info = call_json(sys->target, "info");
  const Json health = call_json(sys->target, "health");
  stop_system(*sys, out);

  // Accounting: every timed op is attempted; anything but a verified ok
  // counts against error_rate.
  for (const PhaseResult* p : {&untraced, &closed, &open}) {
    out.attempted += p->attempted;
    out.errors += p->errors;
    out.refused += p->refused;
    out.lost += p->lost;
    out.wrong += p->wrong;
    if (p->exhausted) {
      out.fail("the prepared request stream ran out before the phase "
               "ended; raise kColdPoolRate");
    }
    for (const std::string& note : p->failure_notes) {
      out.fail(note);
    }
  }
  const std::uint64_t timed_ok = untraced.ok + closed.ok + open.ok;
  if (out.failed() > 0) {
    out.fail(format("%llu of %llu timed ops failed (errors %llu, refused %llu, "
                    "lost %llu, wrong %llu)",
                    static_cast<unsigned long long>(out.failed()),
                    static_cast<unsigned long long>(out.attempted),
                    static_cast<unsigned long long>(out.errors),
                    static_cast<unsigned long long>(out.refused),
                    static_cast<unsigned long long>(out.lost),
                    static_cast<unsigned long long>(out.wrong)));
  }
  if (info.is_null() || health.is_null()) {
    out.fail("final info/health call failed");
    return;
  }

  // Counters the daemons must agree with. A resent request may have
  // reached the daemon the first time too, and a restarted session may
  // have been opened, completed or aborted before it was run again, so
  // each resend or restart widens the exact count by at most one.
  const std::uint64_t resent = g_resent.load();
  const std::uint64_t hits = u64_at(info, {"cache", "hits"});
  const std::uint64_t misses = u64_at(info, {"cache", "misses"});
  switch (spec.kind) {
    case Kind::kWarm:
      expect_eq(out, "cache misses", misses, kWarmKeys);
      expect_between(out, "cache hits", hits, timed_ok, timed_ok + resent);
      break;
    case Kind::kCold:
      expect_between(out, "cache hits", hits, 0, resent);
      expect_between(out, "cache lookups", hits + misses,
                     kColdPrime + out.attempted,
                     kColdPrime + out.attempted + resent);
      break;
    case Kind::kSessions: {
      const std::uint64_t sessions = kSessionPrime + out.attempted;
      const auto count = [&](const char* field) {
        return u64_at(health, {"sessions", field});
      };
      expect_eq(out, "sessions opened", count("opened"),
                count("completed") + count("aborted"));
      expect_between(out, "sessions completed", count("completed"), sessions,
                     sessions + restarts);
      expect_between(out, "sessions aborted", count("aborted"), 0, restarts);
      expect_eq(out, "sessions live", count("live"), 0);
      expect_eq(out, "sessions expired", count("expired"), 0);
      expect_eq(out, "sessions refused", count("refused"), 0);
      break;
    }
  }
  std::size_t checked = 0;
  const std::uint64_t mismatches =
      oracle_check(spec, samples, opt.seed, out, &checked);
  out.wrong += mismatches;
  const std::size_t want = spec.kind == Kind::kSessions ? 1 : 2000;
  if (checked < std::min<std::size_t>(want, timed_ok)) {
    out.fail(format("oracle checked only %zu results", checked));
  }

  const double tail_p = highest_supported_percentile(open.latency_us.size());
  Json& d = out.details;
  const auto array = [](const std::vector<double>& xs) {
    Json a = Json::array();
    for (const double x : xs) {
      a.push_back(x);
    }
    return a;
  };
  d["setup_s"] = array(setup_s);
  d["ready_s"] = array(ready_s);
  d["closed_ops"] = closed.attempted;
  d["closed_seconds"] = closed.elapsed_s;
  d["open_rate"] = spec.open_rate;
  d["open_ops"] = open.attempted;
  d["open_achieved_rate"] =
      static_cast<double>(open.attempted) / open.elapsed_s;
  d["open_latency_samples"] =
      static_cast<std::uint64_t>(open.latency_us.size());
  d["open_tail_percentile"] = tail_p;
  d["open_tail_us"] = percentile(open.latency_us, tail_p);
  d["open_late_p99_ms"] = percentile(open.late_us, 99) / 1e3;
  d["oracle_checked"] = static_cast<std::uint64_t>(checked);
  d["resent"] = resent;
  d["session_restarts"] = restarts;
  d["closed_window_rate"] = array(closed.windows.rate);
  d["closed_window_cpu_us"] = array(closed.windows.cost);
  d["open_window_p50_us"] = array(open.windows.p50_us);
  d["throughput_overall"] = static_cast<double>(closed.ok) / closed.elapsed_s;
  d["cpu_us_per_op_overall"] =
      cpu_s * 1e6 / static_cast<double>(std::max<std::uint64_t>(closed.ok, 1));
  // Diagnostics only: the least-disturbed windows, which show how much
  // of a run's spread other tenants caused.
  d["throughput_best_window"] = percentile(closed.windows.rate, 90);
  d["cpu_us_per_op_best_window"] = percentile(closed.windows.cost, 10);
  d["latency_p50_best_window_us"] = percentile(open.windows.p50_us, 10);
  d["cache"] = info.at("cache");

  if (spans == nullptr) {
    out.metric("throughput", median(closed.windows.rate), "ops/s");
    out.metric("latency_p50_us", percentile(open.latency_us, 50), "us");
    out.metric("cpu_us_per_op", median(closed.windows.cost), "us");
    out.metric("peak_rss_mb", peak_rss_mb, "MiB");
    out.metric("setup_s", median(setup_s), "s");
    return;
  }

  // ---- traced: per-layer metrics.
  const std::size_t probe_n = opt.smoke ? 200 : 2000;
  std::map<std::uint64_t, std::string> ops;
  SpanLog& log = *spans;
  if (spec.kind == Kind::kSessions) {
    probe_sessions(opt.seed, opt.smoke ? 20 : 200, log);
  } else {
    std::vector<ReqPtr> reqs;
    if (spec.kind == Kind::kWarm) {
      for (std::size_t i = 0; i < probe_n; ++i) {
        // Indexes far past the timed stream: the same key table, new order.
        reqs.push_back(
            load->job(std::numeric_limits<std::uint64_t>::max() / 4 + i)->req);
      }
    } else {
      RequestStream probe_stream(opt.seed ^ 0x9B0BEULL);
      for (std::size_t i = 0; i < probe_n; ++i) {
        reqs.push_back(probe_stream.next_ptr());
      }
    }
    probe_request_path(reqs,
                       spec.kind == Kind::kWarm ? Path::kHit : Path::kMiss,
                       spec.kind == Kind::kCold ? kColdCacheBytes
                                                : svc::CacheConfig{}.max_bytes,
                       log, ops);
  }
  const std::vector<Span> all = log.snapshot();
  const auto p50 = [&](std::string_view name) { return p50_us(all, name); };
  out.metric("json.parse_us", p50("json.parse"), "us");
  out.metric("json.dump_us", p50("json.dump"), "us");
  out.metric("proto.envelope_us", p50("proto.envelope"), "us");
  out.metric("proto.frame_us", p50("proto.frame"), "us");
  out.metric("cache.key_us", p50("cache.key"), "us");
  out.metric("cache.digest_us", p50("cache.digest"), "us");
  out.metric("cache.get_hit_us", p50("cache.get_hit"), "us");
  out.metric("cache.get_miss_us", p50("cache.get_miss"), "us");
  out.metric("cache.insert_us", p50("cache.insert"), "us");
  out.metric("cache.hit_rate",
             info.at("cache").contains("hit_rate")
                 ? info.at("cache").at("hit_rate").as_double()
                 : 0.0,
             "ratio");
  out.metric("cache.evictions",
             static_cast<double>(u64_at(info, {"cache", "evictions"})),
             "count");
  const char* handle_ref = nullptr;
  if (spec.kind == Kind::kSessions) {
    handle_ref = "service.handle.session_step";
    out.metric("service.handle_miss_us", p50(handle_ref), "us");
    // Stage requests and service handles are separate sessions with the
    // same shape; compare their medians directly.
    double sum = 0;
    for (const std::string& stage : session_stages()) {
      std::vector<double> xs;
      for (const auto& [id, ns] : child_totals_ns(all, stage)) {
        xs.push_back(ns);
      }
      sum += median(xs);
    }
    out.metric("service.coverage", sum / 1e3 / p50(handle_ref), "ratio");
  } else {
    const bool hit = spec.kind == Kind::kWarm;
    handle_ref = hit ? "service.handle_hit" : "service.handle_miss";
    out.metric("service.handle_hit_us", p50("service.handle_hit"), "us");
    out.metric("service.handle_miss_us", p50("service.handle_miss"), "us");
    out.metric("service.coverage",
               coverage(all, ops, hit ? hit_stages() : miss_stages(),
                        handle_ref),
               "ratio");
    out.metric("graph.k_coloring_us", p50("graph.k_coloring"), "us");
    out.metric("sim.run_decoder_us", p50("sim.run_decoder"), "us");
    out.metric("nbhd.build_proved_us", p50("nbhd.build_proved"), "us");
  }
  const std::string wire = spec.kind == Kind::kSessions ? "wire.session_step"
                                                        : "wire.*";
  out.metric("netloop.residual_us",
             p50(wire) - p50(handle_ref) - p50("client.local"), "us");
  out.metric("netloop.queue_depth_max", static_cast<double>(queue_depth_max),
             "count");
  out.metric("netloop.shed",
             static_cast<double>(u64_at(health, {"queue", "shed"})), "count");
  out.metric("client.check_us", p50("client.check"), "us");
  out.metric("client.retries", static_cast<double>(resent + restarts),
             "count");
  out.metric("client.late_ms", percentile(open.late_us, 99) / 1e3, "ms");
  out.metric("latency_p99_us", percentile(open.latency_us, 99), "us");
  if (spec.kind == Kind::kWarm) {
    probe_fleet(opt, spec, *load, log, out);
  }
  if (spec.kind == Kind::kSessions) {
    out.metric("interactive.commit_round_us",
               p50("interactive.commit_round"), "us");
    out.metric("interactive.open_us", p50("interactive.open"), "us");
    out.metric("interactive.table_open_us", p50("interactive.table_open"),
               "us");
    out.metric("interactive.table_step_us", p50("interactive.table_step"),
               "us");
    out.metric("interactive.step_rtt_us", p50("wire.session_step"), "us");
    out.metric("sessions.live_max", static_cast<double>(live_max), "count");
    out.metric("sessions.expired",
               static_cast<double>(u64_at(health, {"sessions", "expired"})),
               "count");
  }
  // The stages decompose handle_text only if they add up to it. A stage
  // mirror gone stale after a change to Service shows here. It is a
  // ratio of timings, not an output, so it warns instead of failing the
  // run: a faster handle_text must not make the benchmark fail.
  const double explained = out.metrics["service.coverage"].first;
  if (spec.kind != Kind::kSessions && explained < 0.9) {
    const std::string warning = format(
        "service.coverage %.3f < 0.9: the stage replay no longer explains "
        "handle_text",
        explained);
    std::fprintf(stderr, "shlcp_bench: warning: %s\n", warning.c_str());
    out.details["coverage_warning"] = warning;
  }
  const double untraced_rate =
      static_cast<double>(untraced.ok) / untraced.elapsed_s;
  const double traced_rate = static_cast<double>(closed.ok) / closed.elapsed_s;
  out.metric("trace.overhead_pct", (untraced_rate / traced_rate - 1) * 100,
             "%");
}

}  // namespace shlcp::e2e
