// Service-layer bench + acceptance gate (ISSUE 5).
//
// Drives the in-process Service dispatcher (no transport, so the
// numbers isolate dispatch + compute + cache) through three passes:
//
//  1. Verification: for each of the four cacheable endpoints, one
//     request is answered by the service and independently recomputed
//     with direct library calls; the result documents must match
//     byte-for-byte (the bench rebuilds the expected JSON itself, so a
//     dispatcher serialization bug cannot cancel out). Each request is
//     then repeated and the cached replay must be bit-identical to the
//     original, with the `cached` flag flipped.
//  2. Cold pass: all-distinct check_coloring payloads (pure misses) for
//     baseline latency/throughput.
//  3. Warm pass: a mixed 4-endpoint workload folded onto a small
//     payload pool; the acceptance criterion is a cache hit-rate
//     >= 0.5 measured from the CacheStats delta of this pass.
//
// A final drain check flips begin_drain() and asserts the next request
// is refused with the "draining" error. Results go to
// BENCH_service.json (validated in CI by check_bench_json.py
// --service); exit status is nonzero if verification, the hit-rate
// floor, or the drain contract fails.

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/report.h"
#include "certify/degree_one.h"
#include "certify/even_cycle.h"
#include "certify/spanning_bfs.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "lcp/audit.h"
#include "nbhd/aviews.h"
#include "nbhd/witness.h"
#include "service/service.h"
#include "sim/engine.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/format.h"

using namespace shlcp;
using svc::Service;

namespace {

int cold_requests() { return bench::smoke() ? 40 : 200; }
int warm_requests() { return bench::smoke() ? 60 : 240; }

Json request(std::uint64_t id, const std::string& op, Json params) {
  Json req = Json::object();
  req["id"] = id;
  req["op"] = op;
  req["params"] = std::move(params);
  return req;
}

/// Asserts the response is ok and returns its result document.
const Json& result_of(const Json& response) {
  SHLCP_CHECK_MSG(response.at("ok").as_bool(),
                  "service error: " + response.dump());
  return response.at("result");
}

Json int_vector_to_json(const std::vector<int>& xs) {
  Json arr = Json::array();
  for (const int x : xs) {
    arr.push_back(x);
  }
  return arr;
}

Json bool_vector_to_json(const std::vector<bool>& bits) {
  Json arr = Json::array();
  for (const bool b : bits) {
    arr.push_back(b);
  }
  return arr;
}

Instance pool_instance(const std::string& name) {
  for (const NamedInstance& named : audit_instance_pool()) {
    if (named.name == name) {
      return named.inst;
    }
  }
  SHLCP_CHECK_MSG(false, "unknown pool instance " + name);
  return Instance();
}

/// One verification: service answer vs an expected document built from
/// direct library calls, plus cached-replay bit-identity.
bool verify_one(Service& service, const std::string& op, const Json& params,
                const Json& expected, const char* what) {
  const Json first = service.handle(request(1, op, Json(params)));
  const Json& got = result_of(first);
  if (got.dump() != expected.dump()) {
    std::fprintf(stderr, "VERIFY FAIL %s\n  service: %s\n  direct:  %s\n",
                 what, got.dump().c_str(), expected.dump().c_str());
    return false;
  }
  SHLCP_CHECK(!first.at("cached").as_bool());
  const Json second = service.handle(request(2, op, Json(params)));
  if (!second.at("cached").as_bool() ||
      result_of(second).dump() != got.dump()) {
    std::fprintf(stderr, "VERIFY FAIL %s: cached replay differs\n", what);
    return false;
  }
  return true;
}

bool run_verification(Service& service) {
  bool ok = true;

  // run_decoder: degree-one on path5, honest labels, fault-free.
  {
    Json params = Json::object();
    params["lcp"] = "degree-one";
    params["instance"] = "path5";
    params["labels"] = "honest";

    DegreeOneLcp lcp;
    Instance inst = pool_instance("path5");
    inst.labels = *lcp.prove(inst.g, inst.ports, inst.ids);
    const FaultyRunResult run =
        run_decoder_distributed_faulty(lcp.decoder(), inst, FaultPlan{});

    Json expected = Json::object();
    expected["lcp"] = "degree-one";
    expected["instance"] = "path5";
    expected["verdicts"] = bool_vector_to_json(run.verdicts);
    expected["degraded"] = bool_vector_to_json(run.degraded);
    bool all = true;
    for (const bool v : run.verdicts) {
      all = all && v;
    }
    expected["accepts_all"] = all;
    Json& stats = (expected["stats"] = Json::object());
    stats["rounds"] = run.stats.rounds;
    stats["messages"] = run.stats.messages;
    stats["bytes"] = run.stats.bytes;
    Json& faults = (expected["faults"] = Json::object());
    faults["dropped"] = run.faults.dropped;
    faults["duplicated"] = run.faults.duplicated;
    faults["corrupted_fields"] = run.faults.corrupted_fields;
    faults["tampered_messages"] = run.faults.tampered_messages;
    expected["repro"] =
        make_repro("degree-one", "path5", "honest", FaultPlan{});
    ok = verify_one(service, "run_decoder", params, expected,
                    "run_decoder degree-one/path5") &&
         ok;
  }

  // check_coloring, solve mode: C5 is not 2-colorable but 3-colorable.
  for (const int k : {2, 3}) {
    Json params = Json::object();
    params["instance"] = "cycle5";
    params["k"] = k;

    const Graph g = pool_instance("cycle5").g;
    const std::optional<std::vector<int>> coloring = k_coloring(g, k);
    Json expected = Json::object();
    expected["k"] = k;
    expected["mode"] = "solve";
    expected["colorable"] = coloring.has_value();
    expected["coloring"] = coloring ? int_vector_to_json(*coloring) : Json();
    ok = verify_one(service, "check_coloring", params, expected,
                    format("check_coloring cycle5 k=%d", k).c_str()) &&
         ok;
  }

  // search_witness: degree-one family, Lemma 3.2 odd cycle.
  {
    Json params = Json::object();
    params["family"] = "degree-one";
    params["max_n"] = 4;

    DegreeOneLcp lcp;
    const std::vector<Instance> instances = degree_one_witnesses(4);
    const NbhdGraph nbhd =
        build(BuildSource::instances(lcp.decoder(), instances, 2),
              one_thread())
            .take();
    const std::optional<std::vector<int>> cycle = nbhd.odd_cycle();
    Json expected = Json::object();
    expected["family"] = "degree-one";
    expected["decoder"] = "degree-one";
    expected["num_instances"] = static_cast<std::int64_t>(instances.size());
    expected["num_views"] = nbhd.num_views();
    expected["num_edges"] = nbhd.num_edges();
    expected["hiding"] = cycle.has_value();
    expected["odd_cycle"] = cycle ? int_vector_to_json(*cycle) : Json();
    ok = verify_one(service, "search_witness", params, expected,
                    "search_witness degree-one") &&
         ok;
  }

  // build_nbhd: proved even-cycle build over C4 + C6.
  {
    Json params = Json::object();
    params["lcp"] = "even-cycle";
    Json& graphs = (params["graphs"] = Json::array());
    graphs.push_back("cycle:4");
    graphs.push_back("cycle:6");
    params["build"] = "proved";

    EvenCycleLcp lcp;
    const std::vector<Graph> family = {make_cycle(4), make_cycle(6)};
    const NbhdGraph nbhd =
        build(BuildSource::proved(lcp, family), one_thread()).take();
    Json expected = Json::object();
    expected["lcp"] = "even-cycle";
    expected["build"] = "proved";
    expected["num_graphs"] = 2;
    expected["num_views"] = nbhd.num_views();
    expected["num_edges"] = nbhd.num_edges();
    expected["instances_absorbed"] = nbhd.num_instances_absorbed();
    expected["views_deduped"] = nbhd.stats().views_deduped;
    expected["k_colorable"] = nbhd.k_colorable(2);
    const std::optional<std::vector<int>> cycle = nbhd.odd_cycle();
    expected["odd_cycle_len"] =
        cycle ? Json(static_cast<std::int64_t>(cycle->size())) : Json();
    ok = verify_one(service, "build_nbhd", params, expected,
                    "build_nbhd even-cycle") &&
         ok;
  }

  return ok;
}

struct PassStats {
  std::map<std::string, std::vector<std::uint64_t>> latencies_ns;
  std::uint64_t errors = 0;
  double elapsed_s = 0;
  std::uint64_t requests = 0;
};

std::uint64_t percentile(std::vector<std::uint64_t> xs, double p) {
  if (xs.empty()) {
    return 0;
  }
  std::sort(xs.begin(), xs.end());
  const std::size_t i = static_cast<std::size_t>(
      p * static_cast<double>(xs.size() - 1) + 0.5);
  return xs[std::min(i, xs.size() - 1)];
}

/// All-distinct payloads: (kind, n, k) combinations, never repeating.
Json cold_payload(int i) {
  const int kind = i % 3;
  const int n = 3 + (i / 3) % 38;
  const int k = 2 + (i / 114) % 2;
  Graph g = kind == 0   ? make_path(n)
            : kind == 1 ? make_cycle(n)
                        : make_star(n);
  Json params = Json::object();
  params["graph"] = svc::graph_to_json(g);
  params["k"] = k;
  return params;
}

/// The warm mix: a small pool of mixed 4-endpoint payloads; request i
/// draws slot i % pool_size, so every slot repeats ~requests/pool times.
std::pair<std::string, Json> warm_payload(int slot) {
  switch (slot % 4) {
    case 0: {
      static const std::pair<const char*, const char*> kCombos[] = {
          {"degree-one", "path5"},
          {"spanning-bfs", "cycle6"},
          {"even-cycle", "cycle8"},
      };
      const auto& [lcp, inst] = kCombos[(slot / 4) % std::size(kCombos)];
      Json params = Json::object();
      params["lcp"] = lcp;
      params["instance"] = inst;
      params["labels"] = "honest";
      return {"run_decoder", std::move(params)};
    }
    case 1: {
      static const char* kPool[] = {"path5", "cycle5", "grid23", "theta222"};
      Json params = Json::object();
      params["instance"] = kPool[(slot / 4) % std::size(kPool)];
      params["k"] = 2 + (slot / 16) % 2;
      return {"check_coloring", std::move(params)};
    }
    case 2: {
      Json params = Json::object();
      params["family"] = (slot / 4) % 2 == 0 ? "degree-one" : "even-cycle";
      params["max_n"] = 4;
      return {"search_witness", std::move(params)};
    }
    default: {
      static const std::pair<const char*, const char*> kBuilds[] = {
          {"degree-one", "path:4"},
          {"even-cycle", "cycle:4"},
          {"spanning-bfs", "path:4"},
      };
      const auto& [lcp, spec] = kBuilds[(slot / 4) % std::size(kBuilds)];
      Json params = Json::object();
      params["lcp"] = lcp;
      Json& graphs = (params["graphs"] = Json::array());
      graphs.push_back(spec);
      params["build"] = "proved";
      return {"build_nbhd", std::move(params)};
    }
  }
}

PassStats run_cold_pass(Service& service) {
  PassStats stats;
  const std::uint64_t t0 = mono_ns();
  for (int i = 0; i < cold_requests(); ++i) {
    const std::uint64_t s = mono_ns();
    const Json resp = service.handle(
        request(static_cast<std::uint64_t>(i), "check_coloring",
                cold_payload(i)));
    stats.latencies_ns["check_coloring"].push_back(mono_ns() - s);
    if (!resp.at("ok").as_bool()) {
      ++stats.errors;
    }
    ++stats.requests;
  }
  stats.elapsed_s = static_cast<double>(mono_ns() - t0) / 1e9;
  return stats;
}

PassStats run_warm_pass(Service& service) {
  PassStats stats;
  const int pool = warm_requests() / 4;  // expected hit-rate ~0.75
  const std::uint64_t t0 = mono_ns();
  for (int i = 0; i < warm_requests(); ++i) {
    auto [op, params] = warm_payload(i % pool);
    const std::uint64_t s = mono_ns();
    const Json resp = service.handle(
        request(static_cast<std::uint64_t>(1000 + i), op, std::move(params)));
    stats.latencies_ns[op].push_back(mono_ns() - s);
    if (!resp.at("ok").as_bool()) {
      ++stats.errors;
    }
    ++stats.requests;
  }
  stats.elapsed_s = static_cast<double>(mono_ns() - t0) / 1e9;
  return stats;
}

void add_pass_cases(bench::Report& report, const char* pass,
                    const PassStats& stats) {
  for (const auto& [op, lats] : stats.latencies_ns) {
    Json& values = report.add_case(format("%s/%s", pass, op.c_str()));
    values["count"] = static_cast<std::int64_t>(lats.size());
    values["p50_ns"] = percentile(lats, 0.50);
    values["p99_ns"] = percentile(lats, 0.99);
  }
  Json& totals = report.add_case(format("%s/total", pass));
  totals["requests"] = stats.requests;
  totals["errors"] = stats.errors;
  totals["elapsed_s"] = stats.elapsed_s;
  totals["req_per_s"] = stats.elapsed_s > 0
                            ? static_cast<double>(stats.requests) /
                                  stats.elapsed_s
                            : 0.0;
}

}  // namespace

int main() {
  Service service;

  std::printf("== verification: service vs direct library calls ==\n");
  const bool verified = run_verification(service);
  std::printf("verification: %s\n", verified ? "bit-identical" : "FAILED");

  std::printf("== cold pass: %d distinct requests ==\n", cold_requests());
  const PassStats cold = run_cold_pass(service);
  std::printf("cold: %.1f req/s, %llu errors\n",
              cold.elapsed_s > 0
                  ? static_cast<double>(cold.requests) / cold.elapsed_s
                  : 0.0,
              static_cast<unsigned long long>(cold.errors));

  const svc::CacheStats before = service.cache_stats();
  std::printf("== warm pass: %d requests over a %d-slot pool ==\n",
              warm_requests(), warm_requests() / 4);
  const PassStats warm = run_warm_pass(service);
  const svc::CacheStats after = service.cache_stats();
  const std::uint64_t lookups = (after.hits + after.disk_hits + after.misses) -
                                (before.hits + before.disk_hits +
                                 before.misses);
  const double hit_rate_warm =
      lookups == 0 ? 0.0
                   : static_cast<double>((after.hits + after.disk_hits) -
                                         (before.hits + before.disk_hits)) /
                         static_cast<double>(lookups);
  std::printf("warm: %.1f req/s, %llu errors, hit_rate=%.4f\n",
              warm.elapsed_s > 0
                  ? static_cast<double>(warm.requests) / warm.elapsed_s
                  : 0.0,
              static_cast<unsigned long long>(warm.errors), hit_rate_warm);

  // Drain contract: after begin_drain every request is refused.
  service.begin_drain();
  const Json refused = service.handle(request(9999, "info", Json::object()));
  const bool drain_ok =
      !refused.at("ok").as_bool() &&
      refused.at("error").at("code").as_string() == "draining";
  std::printf("drain refusal: %s\n", drain_ok ? "ok" : "FAILED");

  bench::Report report("service");
  report.meta()["requests"] =
      cold.requests + warm.requests;
  report.meta()["hit_rate_warm"] = hit_rate_warm;
  report.meta()["verified"] = verified;
  report.meta()["errors"] = cold.errors + warm.errors;
  report.meta()["drain_refused"] = drain_ok;
  add_pass_cases(report, "cold", cold);
  add_pass_cases(report, "warm", warm);
  report.write();

  // Gate exit code directly (the bench_fault_sweep idiom): there are no
  // google-benchmark timing loops here, the passes above are the
  // measurement.
  const bool gate = verified && drain_ok && cold.errors == 0 &&
                    warm.errors == 0 && hit_rate_warm >= 0.5;
  if (!gate) {
    std::fprintf(stderr, "bench_service: GATE FAILED\n");
  }
  return gate ? 0 : 1;
}
