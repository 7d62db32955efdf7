// Fleet scaling + disjoint-sharding acceptance gate for the shard
// router (DESIGN.md §15, EXPERIMENTS.md E22).
//
// Spawns N real shlcpd backends on ephemeral TCP ports (discovered via
// --port-file) and drives a fixed deterministic payload pool through an
// in-process Router -- the same object shlcp_router serves from behind
// its transport loops -- for N along a 1 -> max scaling curve. Three
// gates per fleet size:
//
//  1. Bit-identity: every routed response's result must be
//     byte-identical to an in-process oracle Service answering the
//     same (op, params). The router may never change an answer.
//
//  2. Disjoint sharding, verified by construction: with every backend
//     alive, the sum of per-backend cache misses (read from the
//     router's aggregated `health`) must equal the number of distinct
//     artifact keys in the stream -- each key computed exactly once
//     fleet-wide, zero duplicate computes, zero reroutes.
//
//  3. Ownership: each payload's first-preference backend
//     (Router::preference_for) must be the one that actually answered
//     it, checked against the per-backend forwarded counters.
//
// Results go to BENCH_fleet.json (validated in CI by
// check_bench_json.py --fleet) with one case per fleet size carrying
// the requests/sec scaling curve. On this repo's CI runners the curve
// is a schema artifact, not a perf claim -- single-core machines
// serialize the backends -- so the gates are correctness-shaped (bit
// identity, zero duplicates), never throughput-shaped beyond "> 0".
// Exit status is nonzero if any gate fails.

#include <chrono>
#include <cstdio>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "bench/report.h"
#include "service/cache.h"
#include "service/process.h"
#include "service/router.h"
#include "service/supervisor.h"
#include "util/check.h"
#include "util/format.h"
#include "util/json.h"

using namespace shlcp;
using bench::kPoolSize;
using bench::pool_payload;
using svc::BackendSpec;
using svc::Router;
using svc::RouterOptions;

namespace {

int fleet_requests() { return bench::smoke() ? 120 : 400; }
int fleet_workers() { return 3; }
std::vector<int> fleet_sizes() {
  return bench::smoke() ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4};
}

std::size_t distinct_keys() {
  std::set<std::string> keys;
  for (int slot = 0; slot < kPoolSize; ++slot) {
    auto [op, params] = pool_payload(slot);
    keys.insert(svc::artifact_key(op, params));
  }
  return keys.size();
}

struct CaseResult {
  int backends = 0;
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t wrong = 0;
  std::uint64_t reroutes = 0;
  std::uint64_t sum_misses = 0;
  std::uint64_t duplicate_computes = 0;
  bool ownership_ok = false;
  double seconds = 0;
  double req_per_s = 0;
};

/// One fleet size: spawn n backends, route the pool through an
/// in-process Router, read the aggregated health back, tear down.
/// nullopt if a backend never became ready.
std::optional<CaseResult> run_case(const std::string& shlcpd, int n,
                                   const std::vector<std::string>& oracle) {
  const bench::TempDir dir("shlcp-fleet");
  std::vector<svc::ChildProcess> fleet(static_cast<std::size_t>(n));
  RouterOptions options;
  for (int b = 0; b < n; ++b) {
    svc::ChildProcess& backend = fleet[static_cast<std::size_t>(b)];
    const std::optional<Json> ports = backend.spawn_ready(
        {shlcpd, "--tcp", "127.0.0.1:0", "--threads", "1"},
        format("%s/ports%d.json", dir.path().c_str(), b),
        svc::ChildStdio{format("%s/backend%d.log", dir.path().c_str(), b)},
        10'000);
    if (!ports) {
      std::fprintf(stderr,
                   "bench_fleet: backend %d never became ready (exit status "
                   "%d)\n",
                   b, backend.last_exit());
      return std::nullopt;
    }
    BackendSpec spec;
    spec.name = format("b%d", b);
    spec.target = format("tcp:127.0.0.1:%llu", static_cast<unsigned long long>(
                                                   ports->at("tcp").as_uint()));
    options.backends.push_back(std::move(spec));
  }
  Router router(options);
  SHLCP_CHECK_MSG(router.probe_all() == n, "not every backend came up");

  CaseResult result;
  result.backends = n;
  const int total = fleet_requests();
  const int workers = fleet_workers();
  std::vector<CaseResult> outs(static_cast<std::size_t>(workers));
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      CaseResult& out = outs[static_cast<std::size_t>(w)];
      for (int i = w; i < total; i += workers) {
        const int slot = i % kPoolSize;
        auto [op, params] = pool_payload(slot);
        Json req = Json::object();
        req["id"] = static_cast<std::int64_t>(i);
        req["op"] = op;
        req["params"] = std::move(params);
        const Json resp = router.handle(req);
        out.requests += 1;
        if (!resp.at("ok").as_bool()) {
          out.errors += 1;
          std::fprintf(stderr, "bench_fleet: slot %d failed: %s\n", slot,
                       resp.dump().c_str());
        } else if (resp.at("result").dump() !=
                   oracle[static_cast<std::size_t>(slot)]) {
          out.wrong += 1;
          std::fprintf(stderr, "bench_fleet: WRONG RESPONSE slot %d\n", slot);
        } else {
          out.ok += 1;
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (const CaseResult& out : outs) {
    result.requests += out.requests;
    result.ok += out.ok;
    result.errors += out.errors;
    result.wrong += out.wrong;
  }
  result.req_per_s = result.seconds > 0
                         ? static_cast<double>(result.requests) / result.seconds
                         : 0;

  // Gate 2: the aggregated health carries each backend's cache misses;
  // with every backend alive their sum must be the distinct-key count.
  Json health_req = Json::object();
  health_req["id"] = "health";
  health_req["op"] = "health";
  const Json health = router.handle(health_req);
  if (health.at("ok").as_bool()) {
    for (const Json& b : health.at("result").at("backends").items()) {
      result.sum_misses += b.at("health").at("cache").at("misses").as_uint();
    }
  } else {
    result.errors += 1;
  }
  const std::uint64_t distinct = distinct_keys();
  result.duplicate_computes =
      result.sum_misses > distinct ? result.sum_misses - distinct : 0;

  // Gate 3: every request went to its key's first-preference backend
  // -- each backend's forwarded count must equal the requests whose
  // preference order starts there (plus the health fan-out), and
  // nothing was rerouted.
  std::vector<std::uint64_t> expected(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < total; ++i) {
    auto [op, params] = pool_payload(i % kPoolSize);
    const std::vector<int> pref = router.preference_for(op, params);
    expected[static_cast<std::size_t>(pref.at(0))] += 1;
  }
  result.ownership_ok = true;
  for (const auto& stats : router.backend_stats()) {
    result.reroutes += stats.rerouted;
    const std::size_t index =
        static_cast<std::size_t>(std::stoi(stats.name.substr(1)));
    // Only routed requests count as forwards (probe_all and the
    // info/health fan-outs bypass the ring), so the match is exact.
    if (stats.forwarded != expected[index]) {
      result.ownership_ok = false;
      std::fprintf(
          stderr,
          "bench_fleet: backend %s forwarded %llu, expected %llu owned\n",
          stats.name.c_str(),
          static_cast<unsigned long long>(stats.forwarded),
          static_cast<unsigned long long>(expected[index]));
    }
  }
  if (result.reroutes != 0) {
    result.ownership_ok = false;
  }

  return result;  // the fleet is killed and reaped, then `dir` removed
}

}  // namespace

int main() {
  const std::string shlcpd = svc::Supervisor::find_shlcpd(nullptr);
  if (shlcpd.empty()) {
    std::fprintf(stderr,
                 "bench_fleet: cannot find shlcpd (set SHLCP_SHLCPD or run "
                 "from the build tree)\n");
    return 1;
  }

  std::printf("== oracle: %d payload slots (%zu distinct keys) ==\n",
              kPoolSize, distinct_keys());
  const std::vector<std::string> oracle =
      bench::compute_oracle(kPoolSize, pool_payload);

  bench::Report report("fleet");
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
  std::uint64_t wrong = 0;
  std::uint64_t duplicate_computes = 0;
  std::uint64_t reroutes = 0;
  bool ownership_ok = true;
  bool throughput_ok = true;
  for (const int n : fleet_sizes()) {
    std::printf("== fleet of %d backend(s): %d requests ==\n", n,
                fleet_requests());
    const std::optional<CaseResult> run = run_case(shlcpd, n, oracle);
    if (!run) {
      return 1;
    }
    const CaseResult& r = *run;
    std::printf(
        "backends=%d: %.1f req/s (%llu ok, %llu errors, %llu wrong) "
        "misses=%llu distinct=%zu duplicates=%llu reroutes=%llu "
        "ownership=%s\n",
        n, r.req_per_s, static_cast<unsigned long long>(r.ok),
        static_cast<unsigned long long>(r.errors),
        static_cast<unsigned long long>(r.wrong),
        static_cast<unsigned long long>(r.sum_misses), distinct_keys(),
        static_cast<unsigned long long>(r.duplicate_computes),
        static_cast<unsigned long long>(r.reroutes),
        r.ownership_ok ? "ok" : "FAILED");
    Json& values = report.add_case(format("backends_%d", n));
    values["backends"] = static_cast<std::int64_t>(n);
    values["requests"] = r.requests;
    values["ok"] = r.ok;
    values["errors"] = r.errors;
    values["wrong"] = r.wrong;
    values["seconds"] = r.seconds;
    values["req_per_s"] = r.req_per_s;
    values["sum_misses"] = r.sum_misses;
    values["duplicate_computes"] = r.duplicate_computes;
    values["reroutes"] = r.reroutes;
    values["ownership_ok"] = r.ownership_ok;
    requests += r.requests;
    errors += r.errors + r.wrong;
    wrong += r.wrong;
    duplicate_computes += r.duplicate_computes;
    reroutes += r.reroutes;
    ownership_ok = ownership_ok && r.ownership_ok;
    throughput_ok = throughput_ok && r.req_per_s > 0;
  }

  report.meta()["requests"] = requests;
  report.meta()["errors"] = errors;
  report.meta()["verified"] = wrong == 0 && requests > 0;
  report.meta()["duplicate_computes"] = duplicate_computes;
  report.meta()["reroutes"] = reroutes;
  report.meta()["ownership_ok"] = ownership_ok;
  report.meta()["distinct_keys"] = static_cast<std::uint64_t>(distinct_keys());
  report.write();

  const bool gate = wrong == 0 && errors == 0 && duplicate_computes == 0 &&
                    ownership_ok && throughput_ok && requests > 0;
  if (!gate) {
    std::fprintf(stderr, "bench_fleet: GATE FAILED\n");
  }
  return gate ? 0 : 1;
}
