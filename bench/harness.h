// Harness shared by the service benches (bench_chaos, bench_fleet,
// bench_supervisor): the payload pool, the in-process oracle and the
// scratch directory the spawned daemons live in.
//
// Every wire response a bench scores is compared byte-for-byte with
// the result an in-process Service gives for the same (op, params):
// the same library code the daemons run, with no transport and no
// shared cache.

#pragma once

#include <stdlib.h>

#include <filesystem>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "service/service.h"
#include "sim/faults.h"
#include "util/check.h"
#include "util/json.h"

namespace shlcp::bench {

/// Size of the fixed payload pool below.
constexpr int kPoolSize = 16;

/// The fixed payload pool: every request draws one of kPoolSize slots,
/// so the oracle table is computed once and the distinct-key count is
/// exact. All four cacheable endpoints are represented and every
/// payload is deterministic (seeded fault plans, fixed instances).
inline std::pair<std::string, Json> pool_payload(int slot) {
  const std::uint64_t variant = static_cast<std::uint64_t>(slot) / 4;
  Json params = Json::object();
  switch (slot % 4) {
    case 0: {
      static const std::pair<const char*, const char*> kCombos[] = {
          {"degree-one", "path5"},
          {"spanning-bfs", "cycle6"},
          {"even-cycle", "cycle8"},
          {"degree-one", "star5"},
      };
      const auto& [lcp, inst] = kCombos[variant % std::size(kCombos)];
      params["lcp"] = lcp;
      params["instance"] = inst;
      params["labels"] = "honest";
      if (variant % 2 == 1) {
        FaultPlan plan;
        plan.label = "drop-light";
        plan.seed = 0xC0FFEE + variant;
        plan.drop_permille = 100;
        params["plan"] = plan.describe();
      }
      return {"run_decoder", std::move(params)};
    }
    case 1: {
      static const char* kPool[] = {"path5", "cycle5", "grid23", "theta222"};
      params["instance"] = kPool[variant % std::size(kPool)];
      params["k"] = static_cast<std::int64_t>(2 + variant % 2);
      return {"check_coloring", std::move(params)};
    }
    case 2: {
      params["family"] = variant % 2 == 0 ? "degree-one" : "even-cycle";
      params["max_n"] = 4;
      return {"search_witness", std::move(params)};
    }
    default: {
      static const std::pair<const char*, const char*> kBuilds[] = {
          {"degree-one", "path:4"},
          {"even-cycle", "cycle:4"},
          {"spanning-bfs", "path:4"},
          {"even-cycle", "cycle:6"},
      };
      const auto& [lcp, spec] = kBuilds[variant % std::size(kBuilds)];
      params["lcp"] = lcp;
      Json& graphs = (params["graphs"] = Json::array());
      graphs.push_back(spec);
      params["build"] = "proved";
      return {"build_nbhd", std::move(params)};
    }
  }
}

/// The oracle's result dumps for `payload(0) .. payload(slots - 1)`,
/// where `payload(slot)` returns an (op, params) pair.
template <class Payload>
std::vector<std::string> compute_oracle(int slots, Payload payload) {
  svc::Service oracle;
  std::vector<std::string> dumps;
  for (int slot = 0; slot < slots; ++slot) {
    auto [op, params] = payload(slot);
    Json req = Json::object();
    req["id"] = static_cast<std::int64_t>(slot);
    req["op"] = op;
    req["params"] = std::move(params);
    const Json resp = oracle.handle(req);
    SHLCP_CHECK_MSG(resp.at("ok").as_bool(),
                    "oracle refused slot " + std::to_string(slot) + ": " +
                        resp.dump());
    dumps.push_back(resp.at("result").dump());
  }
  return dumps;
}

/// A fresh /tmp/<prefix>.XXXXXX directory, removed with its contents
/// when this goes out of scope. Declare it before the daemons that
/// live in it, so they are reaped before it is removed.
class TempDir {
 public:
  explicit TempDir(const std::string& prefix)
      : path_("/tmp/" + prefix + ".XXXXXX") {
    SHLCP_CHECK_MSG(::mkdtemp(path_.data()) != nullptr, "mkdtemp failed");
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace shlcp::bench
