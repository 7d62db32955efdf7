// Session endpoints of the certification service (session_open /
// session_step / session_close) and their integration contract:
//
//   * an honest wire-driven session reaches verdict true and is retired
//     (completed, never aborted);
//   * the session id grammar: charset, length, and the reserved
//     c<digits> retry-alias namespace are refused at open;
//   * duplicate opens -> session_state, unknown ids -> session_not_found,
//     wrong-state messages -> session_state with the session unharmed;
//   * both caps refuse with "overloaded" + retry_after_ms (the shed
//     path), the per-connection cap keyed by the transport connection id;
//   * TTL expiry via the injected clock, counted expired;
//   * info enumerates interactive protocols + limits, health carries
//     session occupancy, and opened == completed + expired + aborted +
//     live holds whenever we look;
//   * session ops are never cached, and the router keys all three ops
//     of one session to the same ring point (affinity).

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/algorithms.h"
#include "graph/generators.h"
#include "interactive/commit.h"
#include "interactive/protocol.h"
#include "service/cache.h"
#include "service/router.h"
#include "service/service.h"

namespace shlcp::svc {
namespace {

Json make_request(std::int64_t id, const std::string& op, Json params) {
  Json req = Json::object();
  req["id"] = id;
  req["op"] = op;
  req["params"] = std::move(params);
  return req;
}

Json ok_result(const Json& response) {
  EXPECT_TRUE(response.at("ok").as_bool()) << response.dump();
  return response.at("result");
}

std::string error_code(const Json& response) {
  EXPECT_FALSE(response.at("ok").as_bool()) << response.dump();
  return response.at("error").at("code").as_string();
}

Json open_params(const std::string& id, const std::string& instance,
                 int rounds) {
  Json params = Json::object();
  params["session"] = id;
  params["instance"] = instance;
  params["k"] = 2;
  params["rounds"] = rounds;
  return params;
}

Json step_request(const std::string& id, Json msg) {
  Json params = Json::object();
  params["session"] = id;
  params["msg"] = std::move(msg);
  return make_request(0, "session_step", std::move(params));
}

/// Drives one honest session over the wire ops; returns the final
/// step's result (carrying the verdict).
Json run_honest_session(Service& service, const std::string& id,
                        const std::string& instance, const Graph& g,
                        int rounds) {
  const Json opened = service.handle(
      make_request(1, "session_open", open_params(id, instance, rounds)));
  ok_result(opened);
  const std::optional<std::vector<int>> coloring = k_coloring(g, 2);
  EXPECT_TRUE(coloring.has_value());
  ia::CommitProver prover(*coloring, 2, id, 0x10ADULL);
  Json last;
  for (int r = 0; r < rounds; ++r) {
    Json commit = Json::object();
    commit["type"] = "commit";
    Json& arr = (commit["commitments"] = Json::array());
    for (const std::uint64_t c : prover.commit_round()) {
      arr.push_back(ia::hex16(c));
    }
    const Json committed =
        ok_result(service.handle(step_request(id, std::move(commit))));
    const Json& ch = committed.at("reply").at("challenge");
    Json open = Json::object();
    open["type"] = "open";
    Json& opens = (open["opens"] = Json::array());
    for (std::size_t i = 0; i < 2; ++i) {
      const ia::Opening o = prover.open(static_cast<int>(ch.at(i).as_int()));
      Json& entry = opens.push_back(Json::array());
      entry.push_back(o.node);
      entry.push_back(o.color);
      entry.push_back(ia::hex16(o.nonce));
    }
    last = ok_result(service.handle(step_request(id, std::move(open))));
  }
  return last;
}

TEST(SessionOps, HonestSessionCompletesOverTheWire) {
  Service service;
  const Json last =
      run_honest_session(service, "s-honest", "cycle6", make_cycle(6), 3);
  EXPECT_TRUE(last.at("completed").as_bool());
  EXPECT_TRUE(last.at("reply").at("verdict").as_bool());

  // Retired on verdict: further steps say session_not_found.
  Json msg = Json::object();
  msg["type"] = "commit";
  msg["commitments"] = Json::array();
  EXPECT_EQ(error_code(service.handle(step_request("s-honest", msg))),
            kErrSessionNotFound);
  const ia::SessionCounters c = service.session_counters();
  EXPECT_EQ(c.completed, 1u);
  EXPECT_EQ(c.live, 0u);
  EXPECT_EQ(c.opened, c.completed + c.expired + c.aborted + c.live);
}

TEST(SessionOps, SessionIdGrammarAndReservedNamespace) {
  Service service;
  const auto open_with = [&](const std::string& id) {
    return error_code(service.handle(
        make_request(1, "session_open", open_params(id, "cycle6", 1))));
  };
  // The retry-alias namespace c<digits> (proto.h) is refused...
  EXPECT_EQ(open_with("c0"), kErrInvalidParams);
  EXPECT_EQ(open_with("c12345"), kErrInvalidParams);
  // ...but near misses are legal ids.
  for (const std::string id : {"c", "c0x", "cc12", "x17"}) {
    ok_result(service.handle(
        make_request(1, "session_open", open_params(id, "cycle6", 1))));
  }
  // Charset and length.
  EXPECT_EQ(open_with("has space"), kErrInvalidParams);
  EXPECT_EQ(open_with(""), kErrInvalidParams);
  EXPECT_EQ(open_with(std::string(65, 'a')), kErrInvalidParams);
  ok_result(service.handle(make_request(
      1, "session_open", open_params(std::string(64, 'a'), "cycle6", 1))));
}

TEST(SessionOps, LifecycleErrors) {
  Service service;
  ok_result(service.handle(
      make_request(1, "session_open", open_params("s-life", "cycle6", 2))));
  // Duplicate open: the id is taken.
  EXPECT_EQ(error_code(service.handle(make_request(
                2, "session_open", open_params("s-life", "cycle6", 2)))),
            kErrSessionState);
  // Unknown id.
  Json msg = Json::object();
  msg["type"] = "commit";
  msg["commitments"] = Json::array();
  EXPECT_EQ(error_code(service.handle(step_request("s-ghost", msg))),
            kErrSessionNotFound);
  Json close = Json::object();
  close["session"] = "s-ghost";
  EXPECT_EQ(error_code(service.handle(
                make_request(3, "session_close", std::move(close)))),
            kErrSessionNotFound);
  // Wrong-state message: refused, session intact and still closable.
  Json open_msg = Json::object();
  open_msg["type"] = "open";
  open_msg["opens"] = Json::array();
  EXPECT_EQ(error_code(service.handle(step_request("s-life", open_msg))),
            kErrSessionState);
  Json close2 = Json::object();
  close2["session"] = "s-life";
  const Json closed = ok_result(
      service.handle(make_request(4, "session_close", std::move(close2))));
  EXPECT_TRUE(closed.at("closed").as_bool());
  EXPECT_EQ(service.session_counters().aborted, 1u);
  // Unknown protocols and edgeless instances are refused up front.
  Json params = open_params("s-proto", "cycle6", 1);
  params["protocol"] = "nope";
  EXPECT_EQ(error_code(service.handle(
                make_request(5, "session_open", std::move(params)))),
            kErrInvalidParams);
}

TEST(SessionOps, CapsRefuseWithRetryHint) {
  ServiceConfig config;
  config.sessions.global_max = 3;
  config.sessions.per_conn_max = 2;
  Service service(config);
  const auto open_on = [&](const std::string& id, std::int64_t conn) {
    return service.handle(
        make_request(1, "session_open", open_params(id, "cycle6", 1)), 0,
        conn);
  };
  ok_result(open_on("a", 7));
  ok_result(open_on("b", 7));
  // Per-connection cap on conn 7; a different conn still fits.
  Json refused = open_on("c", 7);
  EXPECT_EQ(error_code(refused), kErrOverloaded);
  EXPECT_GT(refused.at("error").at("retry_after_ms").as_int(), 0);
  ok_result(open_on("c", 8));
  // Global cap now; in-process callers (conn = -1) are not exempt from
  // the global cap, only from the per-connection one.
  refused = open_on("d", -1);
  EXPECT_EQ(error_code(refused), kErrOverloaded);
  EXPECT_GT(refused.at("error").at("retry_after_ms").as_int(), 0);
  const ia::SessionCounters c = service.session_counters();
  EXPECT_EQ(c.refused, 2u);
  EXPECT_EQ(c.live, 3u);
}

TEST(SessionOps, TtlExpiryThroughTheInjectedClock) {
  std::uint64_t now = 0;
  ServiceConfig config;
  config.sessions.ttl_ms = 100;
  config.sessions.clock = [&now] { return now; };
  Service service(config);
  ok_result(service.handle(
      make_request(1, "session_open", open_params("s-ttl", "cycle6", 2))));
  now += 101;
  Json msg = Json::object();
  msg["type"] = "commit";
  msg["commitments"] = Json::array();
  EXPECT_EQ(error_code(service.handle(step_request("s-ttl", msg))),
            kErrSessionNotFound);
  const ia::SessionCounters c = service.session_counters();
  EXPECT_EQ(c.expired, 1u);
  EXPECT_EQ(c.opened, c.completed + c.expired + c.aborted + c.live);
}

TEST(SessionOps, InfoAndHealthCarrySessionOccupancy) {
  Service service;
  ok_result(service.handle(
      make_request(1, "session_open", open_params("s-info", "cycle6", 1))));

  const Json info = ok_result(service.handle(make_request(2, "info",
                                                          Json::object())));
  const Json& interactive = info.at("interactive");
  EXPECT_EQ(interactive.at("schema").as_string(), ia::kInteractiveSchema);
  bool has_kcol = false;
  for (const Json& name : interactive.at("protocols").items()) {
    has_kcol = has_kcol || name.as_string() == "kcol-commit";
  }
  EXPECT_TRUE(has_kcol);
  EXPECT_EQ(interactive.at("sessions").at("live").as_int(), 1);
  EXPECT_GT(interactive.at("limits").at("ttl_ms").as_int(), 0);
  EXPECT_GT(interactive.at("limits").at("global_max").as_int(), 0);

  const Json health = ok_result(service.handle(make_request(3, "health",
                                                            Json::object())));
  const Json& sessions = health.at("sessions");
  EXPECT_EQ(sessions.at("live").as_int(), 1);
  EXPECT_EQ(sessions.at("opened").as_int(), 1);
  EXPECT_GT(sessions.at("global_max").as_int(), 0);

  // The ops list advertises all three session endpoints.
  int session_ops = 0;
  for (const Json& op : info.at("ops").items()) {
    const std::string& name = op.as_string();
    session_ops += name == "session_open" || name == "session_step" ||
                   name == "session_close";
  }
  EXPECT_EQ(session_ops, 3);
}

TEST(SessionOps, SessionOpsAreNeverCached) {
  Service service;
  // Two identical session_open requests must both execute (the second
  // fails session_state) -- a cache hit would replay the first ok.
  const Json params = open_params("s-cache", "cycle6", 1);
  const Json first = service.handle(make_request(1, "session_open", params));
  EXPECT_TRUE(first.at("ok").as_bool());
  EXPECT_FALSE(first.at("cached").as_bool());
  const Json second = service.handle(make_request(2, "session_open", params));
  EXPECT_EQ(error_code(second), kErrSessionState);
}

TEST(SessionOps, RouterAffinityKeysOnTheSessionId) {
  // All three ops of one session share a routing key regardless of the
  // rest of their params; a different session id lands elsewhere in key
  // space; stateless ops keep their artifact key.
  const Json open = open_params("s-aff", "cycle6", 4);
  Json step = Json::object();
  step["session"] = "s-aff";
  step["msg"] = Json::object();
  Json close = Json::object();
  close["session"] = "s-aff";

  const std::string key_open = Router::routing_key("session_open", open);
  const std::string key_step = Router::routing_key("session_step", step);
  const std::string key_close = Router::routing_key("session_close", close);
  EXPECT_EQ(key_open, key_step);
  EXPECT_EQ(key_open, key_close);

  Json other = open;
  other["session"] = "s-other";
  EXPECT_NE(Router::routing_key("session_open", other), key_open);

  EXPECT_EQ(Router::routing_key("info", Json::object()),
            artifact_key("info", Json::object()));
  // A malformed session op (no id) falls back to the stateless key
  // rather than crashing the router.
  EXPECT_EQ(Router::routing_key("session_step", Json::object()),
            artifact_key("session_step", Json::object()));
}

}  // namespace
}  // namespace shlcp::svc
